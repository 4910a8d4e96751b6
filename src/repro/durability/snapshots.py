"""Checkpoint manifests chaining delta files: state, then change.

A checkpoint is the durable image of the index state at one WAL watermark.
Each one is a **manifest** naming its delta file (none when it holds no
entry) and linking to its parent manifest.  There are exactly two kinds:

* a **full** checkpoint (:meth:`SnapshotStore.write_full_checkpoint`)
  describes *state*: every live item with its **global sequence number**
  (the live insertion index, from zero), so the rebuilt dense id tables,
  and therefore scores, are byte-identical.  The bootstrap
  checkpoint of a fresh directory is one; with a parent it is a
  **rebase** (``"rebase": true``) and makes every older delta irrelevant.
  It is **streamed**: one pass over the engine's item iterators appends
  each entry to the open delta file (:class:`_Delta`), and an entry is
  built only when it joins that file's chunk, so the write holds one
  chunk, not the state.  The items streamed must
  match the live counts the manifest declares, or nothing is renamed in.
* an **ops** checkpoint (:meth:`SnapshotStore.write_ops_checkpoint`)
  describes *change*: its deltas hold, verbatim, the index-op records the
  WAL carried for ``parent.wal_lsn < lsn <= wal_lsn`` (``"ops"``), and the
  manifest counts them (``"op_records"``).  Its cost is the ops since the
  parent, whatever they were — adds, deletes, updates.

:meth:`SnapshotStore.load_base` is the chain's one read path, shared by
recovery, a reopening writer and ``repro verify``: one walk, tip to root,
then a **fold** in manifest order from the last rebase.  Full-state
entries are appended, op records go through the one
:func:`~repro.durability.replay.apply_record` into the item tables
recovery then replays the WAL tail into, and after every manifest the live
counts must equal the counts it recorded.  Each manifest is checked as it
is parsed — every field present and typed, its id the one its file name
carries, its ``parent`` the id just below (every writer links that way) —
so the walk cannot loop, and damage is a :class:`SnapshotError` naming
the file.

Replay is keyed by id (a delete removes its item, an update re-appends
it, exactly as the live engine re-interns), and compaction preserves live
order, so no mutation ever *forces* a rebase.  The one remaining trigger
is the engine's compaction hook, as the chain's garbage collection: every
delete or update leaves one tombstone in memory and dead records in the
chain (itself and the add it undid), so rebasing when compaction
reclaims the tombstones bounds the dead weight a recovery replays by the
same ratio that bounds dead slots in memory — without a knob of its own.
The rest of the chain is one add record per live item, which is what a
suffix of full-state entries would hold.

A shot's feature vector — the third field of a full-state shot entry, and
the ``"features"`` of a shot op record — is one
:func:`~repro.utils.serialization.encode_vector` string of packed float64s
(exact), where formats 1 and 2 held a list of decimals.  Everything else
(concepts, term frequencies, manifests) stays plain JSON.
Delta files carry no checksum, so a vector that does not decode is a
:class:`SnapshotError` naming its file.

Older files stay readable, and a chain may mix them.  A manifest of an
older build may name one delta per shard of a multi-segment directory;
the fold merges them back by sequence number and by LSN.  Format 1 non-rebase
deltas are append-only *suffixes* of the sequence (entries numbered from
the parent's counts), which the fold appends like any other full-state
entries, and formats 1 and 2 store vectors as JSON lists, which
:func:`~repro.utils.serialization.decode_vector` also takes.  This build
writes format 3 only.

Crash safety: delta files are written first, then the manifest, each
through ``tmp + fsync + os.replace`` (:class:`_JsonWriter`, the one
encoder of every file here).  A manifest therefore never names a
delta that is not fully on disk, and a crash mid-checkpoint leaves the
previous manifest as the durable tip (the orphaned delta files are inert).
WAL compaction — truncating records at or below the manifest's watermark —
only runs after the manifest rename, so the WAL always covers everything
the snapshot chain does not.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.durability.replay import (
    Record,
    ReplayCounts,
    ReplayError,
    TextItems,
    VisualItems,
    apply_record,
)
from repro.errors import ReproError
from repro.utils.serialization import (
    PathLike,
    canonical_json,
    decode_vector,
    encode_vector,
    read_json,
)

#: On-disk format version this build writes (formats 1 and 2 are still read).
SNAPSHOT_FORMAT = 3

_MANIFEST_PREFIX = "checkpoint-"
_MANIFEST_SUFFIX = ".json"

#: List elements per encoder call in :class:`_JsonWriter`, and so the most
#: entries of one list it holds.  A streamed full checkpoint builds an entry
#: only when it joins the chunk, so its transient memory is one chunk, its
#: encoded string and the file's buffer: a rebase peaks at 48-50 KiB of
#: traced allocations, at 500 and 2 000 live items alike (CPython 3.11).  A 1 178-document
#: + 1 178-shot full state (1.2 MB) took 32.1 ms at one element per call,
#: 27.6 ms at 32 and 30.0 ms at 256, whose chunk strings peaked at 894 KiB
#: of transient memory against 127 KiB at 32 (2-core x86-64 VM).
_CHUNK_ITEMS = 32


class SnapshotError(ValueError, ReproError):
    """The snapshot chain is unusable (missing or inconsistent files)."""


def manifest_filename(checkpoint_id: int) -> str:
    """File name of a checkpoint manifest: ``checkpoint-000003.json``."""
    return f"{_MANIFEST_PREFIX}{checkpoint_id:06d}{_MANIFEST_SUFFIX}"


def delta_filename(checkpoint_id: int) -> str:
    """File name of a checkpoint's delta: ``delta-cp000003-shard0000.json``.

    ``shard0000`` (and a delta's ``"shard": 0``) is how older builds named
    the first segment of a directory they split; keeping it keeps the bytes
    of every one-segment directory as they were.
    """
    return f"delta-cp{checkpoint_id:06d}-shard0000.json"


class _JsonWriter:
    """One JSON object written durably, its lists a chunk at a time.

    The bytes are ``json.dumps(payload, sort_keys=True, separators=(",",
    ":"))`` plus a newline, where ``payload`` is ``fields`` plus one list
    per :meth:`open_list` key.  ``fields`` are encoded whole when the sorted
    key order reaches them; list keys must be opened in sorted order, and
    their elements go through one C-encoder call per :data:`_CHUNK_ITEMS`.
    A ``bytes`` element is a value already encoded that way (an ops delta's
    WAL payload) and is written verbatim.  Everything goes to ``path.tmp``;
    :meth:`commit` fsyncs it and renames it onto ``path``, :meth:`discard`
    removes it.
    """

    def __init__(self, path: Path, fields: Dict[str, object]) -> None:
        self._path = path
        self._tmp = path.with_suffix(path.suffix + ".tmp")
        self._handle = self._tmp.open("w", encoding="utf-8")
        self._write = self._handle.write
        self._fields = sorted(fields.items(), reverse=True)  # smallest key last
        self._keys = 0
        self.list_key: Optional[str] = None
        self._chunk: list = []
        self._written = 0
        self._write("{")

    def _key(self, key: str) -> None:
        self._write(("," if self._keys else "") + canonical_json(key) + ":")
        self._keys += 1

    def _fields_before(self, key: Optional[str]) -> None:
        fields = self._fields
        while fields and (key is None or fields[-1][0] < key):
            name, value = fields.pop()
            self._key(name)
            self._write(canonical_json(value))

    def open_list(self, key: str) -> None:
        """Close the open list, if any, and start the list ``key``."""
        self._close_list()
        self._fields_before(key)
        self._key(key)
        self._write("[")
        self.list_key, self._written = key, 0

    def append(self, element: object) -> None:
        """Add one element to the open list."""
        self._chunk.append(element)
        if len(self._chunk) == _CHUNK_ITEMS:
            self._flush()

    def _flush(self) -> None:
        chunk = self._chunk
        if not chunk:
            return
        if self._written:
            self._write(",")
        if isinstance(chunk[0], bytes):
            self._write(b",".join(chunk).decode("utf-8"))
        else:
            self._write(canonical_json(chunk)[1:-1])
        self._written += len(chunk)
        self._chunk = []

    def _close_list(self) -> None:
        if self.list_key is not None:
            self._flush()
            self._write("]")
            self.list_key = None

    def commit(self) -> None:
        """Finish the object, fsync it and rename it into place."""
        self._close_list()
        self._fields_before(None)
        self._write("}\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        os.replace(self._tmp, self._path)

    def discard(self) -> None:
        """Drop the unfinished file: ``path`` keeps what it held."""
        self._handle.close()
        self._tmp.unlink(missing_ok=True)


def _write_json_atomic(path: Path, payload: Dict[str, object]) -> None:
    """Write a JSON object durably: tmp file, fsync, atomic rename.

    The bytes are ``json.dumps(payload, sort_keys=True, separators=(",",
    ":"))`` plus a newline, produced by :class:`_JsonWriter`: a value that
    is a list or an iterator (a generator, say) is streamed, consumed once,
    :data:`_CHUNK_ITEMS` elements per C-encoder call, so neither the
    Python-level encoder ``json.dump`` streams through nor a whole
    multi-megabyte document held in memory is paid for under the writer
    lock.  A list of ``bytes`` holds values already encoded that way (an ops
    delta's WAL payloads) and is written verbatim.
    """
    streamed = sorted(
        key for key, value in payload.items() if isinstance(value, (list, Iterator))
    )
    writer = _JsonWriter(
        path, {key: value for key, value in payload.items() if key not in streamed}
    )
    try:
        for key in streamed:
            writer.open_list(key)
            for element in payload[key]:
                writer.append(element)
        writer.commit()
    except BaseException:
        writer.discard()
        raise


#: The manifest fields every reader relies on, with the JSON types they take.
_MANIFEST_FIELDS = {
    "checkpoint_id": (int,),
    "parent": (int, type(None)),
    "wal_lsn": (int,),
    "text_count": (int,),
    "shot_count": (int,),
    "deltas": (list,),
    "rebase": (bool,),
    "op_records": (int,),
}


def _check_dense(manifest_name: str, kind: str, live: int, expected: int) -> None:
    if live != expected:
        raise SnapshotError(
            f"snapshot chain {kind} sequence is not dense at {manifest_name}: "
            f"{live} live for {expected} expected — a delta file is missing "
            f"or corrupt"
        )


@dataclass
class ChainFold:
    """What :meth:`SnapshotStore.load_base` restored, and what it read.

    ``text`` / ``visual`` hold the items in global insertion order;
    recovery replays the WAL tail on into them.  ``wal_lsn`` and
    ``checkpoint_id`` are the tip's (-1: no checkpoint).  The folded part
    of the chain runs from checkpoint ``base_id`` (the last rebase, or the
    bootstrap) through the tip: ``manifests`` manifests whose ops
    checkpoints hold ``op_records`` records.  The ``baseline_*`` counts are
    the bootstrap checkpoint's.
    """

    text: TextItems = field(default_factory=TextItems)
    visual: VisualItems = field(default_factory=VisualItems)
    wal_lsn: int = 0
    checkpoint_id: int = -1
    base_id: int = 0
    manifests: int = 0
    op_records: int = 0
    baseline_text_count: int = 0
    baseline_shot_count: int = 0


def manifest_ids(directory: PathLike) -> List[int]:
    """Checkpoint ids whose manifests are present in ``directory``, ascending."""
    directory = Path(directory)
    if not directory.exists():
        return []
    ids = []
    for entry in directory.iterdir():
        name = entry.name
        if name.startswith(_MANIFEST_PREFIX) and name.endswith(_MANIFEST_SUFFIX):
            stem = name[len(_MANIFEST_PREFIX) : -len(_MANIFEST_SUFFIX)]
            if stem.isdigit():
                ids.append(int(stem))
    return sorted(ids)


def _check_manifest(manifest: object, checkpoint_id: int) -> Dict[str, object]:
    """``manifest`` as read from ``checkpoint_id``'s file, refused unless every
    field a reader relies on is present and typed, its id is the one its
    file name carries, and it links to the checkpoint just before it."""
    name = manifest_filename(checkpoint_id)
    if not isinstance(manifest, dict):
        raise SnapshotError(f"checkpoint manifest {name} is not a JSON object")
    manifest.setdefault("op_records", 0)  # format 1 had full-state deltas only
    for key, types in _MANIFEST_FIELDS.items():
        if key not in manifest or type(manifest[key]) not in types:
            problem = repr(manifest[key]) if key in manifest else "missing"
            raise SnapshotError(f"checkpoint manifest {name}: {key!r} is {problem}")
    if not all(type(delta) is str for delta in manifest["deltas"]):
        raise SnapshotError(f"checkpoint manifest {name}: 'deltas' are not file names")
    if manifest["checkpoint_id"] != checkpoint_id:
        raise SnapshotError(
            f"checkpoint manifest {name} holds checkpoint_id "
            f"{manifest['checkpoint_id']}"
        )
    parent = checkpoint_id - 1 if checkpoint_id else None
    if manifest["parent"] != parent:
        raise SnapshotError(
            f"checkpoint manifest {name} links to parent "
            f"{manifest['parent']!r}, not {parent!r}"
        )
    return manifest


class SnapshotStore:
    """Reads and writes one directory's checkpoint chain.

    The store reads and checks the tip manifest when it opens and keeps the
    latest one in memory, so the next checkpoint knows its parent's id and
    watermark without re-reading the chain, and :meth:`load_base` walks
    from the tip it already holds.
    """

    def __init__(self, directory: PathLike) -> None:
        self._directory = Path(directory)
        ids = manifest_ids(self._directory)
        self._latest: Optional[Dict[str, object]] = (
            self._read_manifest(ids[-1]) if ids else None
        )

    @property
    def latest_manifest(self) -> Optional[Dict[str, object]]:
        """The tip manifest, or ``None`` before the first checkpoint."""
        return self._latest

    @property
    def latest_wal_lsn(self) -> int:
        """The WAL watermark the tip manifest covers through (0 if none)."""
        if self._latest is None:
            return 0
        return int(self._latest["wal_lsn"])

    # -- reading -----------------------------------------------------------------

    def _read_manifest(self, checkpoint_id: int) -> Dict[str, object]:
        """Parse and check one manifest (:func:`_check_manifest`)."""
        name = manifest_filename(checkpoint_id)
        try:
            manifest = read_json(self._directory / name)
        except FileNotFoundError:
            raise SnapshotError(
                f"checkpoint manifest {name} is missing from the chain"
            ) from None
        except ValueError as error:
            raise SnapshotError(f"checkpoint manifest {name}: {error}") from None
        return _check_manifest(manifest, checkpoint_id)

    def manifest_chain(self) -> List[Dict[str, object]]:
        """The manifests from the root to the held tip, parent-linked.

        Every manifest read links to the id just below its own, so the
        walk parses exactly the ``tip id`` manifests below the tip.  Raises
        :class:`SnapshotError` when a link of the chain is missing or
        damaged — the chain is only as durable as its weakest manifest.
        """
        if self._latest is None:
            return []
        chain = [self._latest]
        while chain[-1]["parent"] is not None:
            chain.append(self._read_manifest(chain[-1]["parent"]))
        chain.reverse()
        return chain

    def _read_delta(self, manifest_name: str, name: str) -> Dict[str, object]:
        try:
            delta = read_json(self._directory / name)
        except FileNotFoundError:
            raise SnapshotError(
                f"snapshot delta {name} named by {manifest_name} is missing"
            ) from None
        except ValueError as error:
            raise SnapshotError(f"snapshot delta {name}: {error}") from None
        if not isinstance(delta, dict):
            raise SnapshotError(f"snapshot delta {name} is malformed")
        return delta

    def load_base(self) -> ChainFold:
        """Walk the chain once (:meth:`manifest_chain`) and fold it.

        Manifests are folded in order from the last rebase, since a rebase
        re-snapshots the full live state and everything before it describes
        state that no longer exists.  A full-state manifest's entries are
        put in global sequence order (an older manifest may name several
        delta files) and appended — each must land on exactly the next live
        slot; an ops manifest's records are put in LSN order and replayed
        through
        :func:`~repro.durability.replay.apply_record` into the same
        insertion-ordered item tables recovery replays the WAL tail into.
        After **every** manifest the live counts must equal the counts that
        manifest recorded, so a missing file, a dropped record or a hole in
        a sequence raises :class:`SnapshotError` naming the manifest it
        belongs to, rather than recovering a state with shifted interning.
        """
        chain = self.manifest_chain()
        fold = ChainFold()
        if not chain:
            return fold
        start = next((p for p in range(len(chain) - 1, 0, -1) if chain[p]["rebase"]), 0)
        text, visual = fold.text, fold.visual
        counts = ReplayCounts()
        for manifest in chain[start:]:
            name = manifest_filename(manifest["checkpoint_id"])
            documents: List[tuple] = []
            shots: List[tuple] = []
            ops: List[Tuple[int, Record, str]] = []
            for delta_name in manifest["deltas"]:
                delta = self._read_delta(name, delta_name)
                try:
                    documents.extend(
                        (int(seq), document_id, vector)
                        for seq, document_id, vector in delta.get("documents", ())
                    )
                    shots.extend(
                        (int(seq), shot_id, decode_vector(features), concepts)
                        for seq, shot_id, features, concepts in delta.get("shots", ())
                    )
                except (TypeError, ValueError) as error:
                    raise SnapshotError(f"snapshot delta {delta_name}: {error}") from None
                for record in delta.get("ops", ()):
                    lsn = record.get("lsn") if isinstance(record, dict) else None
                    if type(lsn) is not int:
                        raise SnapshotError(
                            f"snapshot delta {delta_name}: an op record has no lsn"
                        )
                    ops.append((lsn, record, delta_name))
            documents.sort(key=lambda entry: entry[0])
            shots.sort(key=lambda entry: entry[0])
            for seq, document_id, vector in documents:
                _check_dense(name, "document", len(text), seq)
                text.add_document_frequencies(document_id, vector)
            for seq, shot_id, features, concepts in shots:
                _check_dense(name, "shot", len(visual), seq)
                visual.add_shot(shot_id, features, concepts)
            if len(ops) != manifest["op_records"]:
                raise SnapshotError(
                    f"{name} counts {manifest['op_records']} op records but "
                    f"its deltas hold {len(ops)} — a delta file is truncated "
                    f"or corrupt"
                )
            ops.sort(key=lambda entry: entry[0])
            for _, record, delta_name in ops:
                try:
                    apply_record(record, text, visual, counts)
                except ReplayError as error:
                    raise SnapshotError(
                        f"snapshot delta {delta_name} of {name}: {error}"
                    ) from None
            _check_dense(name, "document", len(text), manifest["text_count"])
            _check_dense(name, "shot", len(visual), manifest["shot_count"])
        root, tip = chain[0], chain[-1]
        fold.wal_lsn, fold.checkpoint_id = tip["wal_lsn"], tip["checkpoint_id"]
        fold.base_id = chain[start]["checkpoint_id"]
        fold.manifests = len(chain) - start
        fold.op_records = sum(manifest["op_records"] for manifest in chain[start:])
        fold.baseline_text_count = root["text_count"]
        fold.baseline_shot_count = root["shot_count"]
        return fold

    # -- writing -----------------------------------------------------------------

    def write_full_checkpoint(
        self,
        text_items: Iterable[Tuple[str, Dict[str, int]]],
        visual_items: Iterable[Tuple[str, Sequence[float], Dict[str, float]]],
        text_count: int,
        shot_count: int,
        wal_lsn: int,
    ) -> Dict[str, object]:
        """Write the full live state, numbered from sequence zero.

        ``text_items`` / ``visual_items`` yield the current live state in
        global insertion order (a term map is encoded as given, without a
        copy), and ``text_count`` / ``shot_count`` are how many they yield.  Each
        is consumed once: an entry is built when it joins the delta's
        chunk, so what the write holds at once is bounded by the chunk
        size, not by the state.  A count that differs from the declared one
        raises :class:`SnapshotError`, and nothing is renamed into place.
        This is the bootstrap checkpoint of a fresh directory and, with a
        parent, a **rebase**: the manifest is marked so :meth:`load_base`
        ignores everything before it.  An empty state writes no delta.
        """
        def stream(delta: _Delta) -> None:
            documents = shots = 0
            for documents, (document_id, vector) in enumerate(text_items, 1):
                delta.append("documents", [documents - 1, document_id, vector])
            for shots, (shot_id, features, concepts) in enumerate(visual_items, 1):
                delta.append(
                    "shots", [shots - 1, shot_id, encode_vector(features), concepts]
                )
            if (documents, shots) != (text_count, shot_count):
                raise SnapshotError(
                    f"full checkpoint streamed {documents} documents and "
                    f"{shots} shots for {text_count} and {shot_count} "
                    f"declared; no manifest was written"
                )

        return self._write_checkpoint(
            stream,
            wal_lsn=wal_lsn,
            text_count=text_count,
            shot_count=shot_count,
            rebase=self._latest is not None,
            op_records=0,
        )

    def write_ops_checkpoint(
        self,
        entries: Sequence[Tuple[int, Record, bytes]],
        wal_lsn: int,
        text_count: int,
        shot_count: int,
    ) -> Dict[str, object]:
        """Write the index-op records since the parent checkpoint.

        ``entries`` are the WAL's own ``(lsn, record, payload)`` entries
        (:class:`~repro.durability.wal.WalEntry`) for ``parent.wal_lsn <
        lsn <= wal_lsn``, in LSN order; each record goes into its delta as
        the payload bytes the WAL framed, which are its canonical JSON.
        ``text_count`` / ``shot_count`` are the live counts at the cut,
        which :meth:`load_base` checks the fold against.  No records
        write no delta; the chain must already have a full checkpoint to
        replay them onto.
        """
        def stream(delta: _Delta) -> None:
            for entry in entries:
                delta.append("ops", entry[2])

        return self._write_checkpoint(
            stream,
            wal_lsn=wal_lsn,
            text_count=text_count,
            shot_count=shot_count,
            rebase=False,
            op_records=len(entries),
        )

    def _write_checkpoint(
        self,
        stream: Callable[["_Delta"], None],
        wal_lsn: int,
        text_count: int,
        shot_count: int,
        rebase: bool,
        op_records: int,
    ) -> Dict[str, object]:
        """Deltas first, then the manifest naming them (see module docstring).

        ``stream`` appends the checkpoint's entries to its delta; if it (or
        the delta's commit) raises, the unfinished delta file is dropped and
        no manifest is written.
        """
        parent = self._latest
        checkpoint_id = int(parent["checkpoint_id"]) + 1 if parent else 0
        self._directory.mkdir(parents=True, exist_ok=True)
        delta = _Delta(self._directory / delta_filename(checkpoint_id), checkpoint_id)
        try:
            stream(delta)
            delta_names = delta.commit()
        except BaseException:
            delta.discard()
            raise
        manifest: Dict[str, object] = {
            "format": SNAPSHOT_FORMAT,
            "checkpoint_id": checkpoint_id,
            "parent": int(parent["checkpoint_id"]) if parent else None,
            "wal_lsn": int(wal_lsn),
            "text_count": int(text_count),
            "shot_count": int(shot_count),
            "deltas": delta_names,
            "rebase": rebase,
            "op_records": op_records,
        }
        _write_json_atomic(
            self._directory / manifest_filename(checkpoint_id), manifest
        )
        self._latest = manifest
        return manifest


class _Delta:
    """The delta file of one checkpoint, written in one pass.

    The file is opened on the first entry and a list key on its first
    entry, so a delta with no documents has no ``"documents"`` key and a
    checkpoint with no entries at all has no file.  Entries must come key
    by key in sorted order (documents, then shots).
    """

    def __init__(self, path: Path, checkpoint_id: int) -> None:
        self._path = path
        self._checkpoint_id = checkpoint_id
        self._writer: Optional[_JsonWriter] = None

    def append(self, key: str, entry: object) -> None:
        writer = self._writer
        if writer is None:
            writer = self._writer = _JsonWriter(
                self._path,
                {
                    "format": SNAPSHOT_FORMAT,
                    "checkpoint_id": self._checkpoint_id,
                    "shard": 0,
                },
            )
        if writer.list_key != key:
            writer.open_list(key)
        writer.append(entry)

    def commit(self) -> List[str]:
        """Rename the delta into place; the names the manifest lists."""
        if self._writer is None:
            return []
        self._writer.commit()
        return [self._path.name]

    def discard(self) -> None:
        """Drop the delta file if it is not yet renamed into place."""
        if self._writer is not None:
            self._writer.discard()

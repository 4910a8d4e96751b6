"""Rewrite a closed durable directory in the older N-segment layout.

A build before the one-segment log split a durable directory over
``num_shards`` segments and routed every item id to segment
``crc32(id) % num_shards``: each WAL record went to its id's segment file
(``wal-shard-000k.log``) and each checkpoint wrote one delta per segment
that held entries (``delta-cpNNNNNN-shard000k.json`` with ``"shard": k``),
keeping the global sequence numbers and LSNs; the header counted the
segments.  :func:`split_into_segments` turns a directory this build wrote
into exactly that layout, so a test can reopen, recover, verify or tail any
state it built as an older build would have left it.  Readers merge the
further segments back by LSN and sequence number, and the first writer to
attach converts the directory to one segment.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, List

from repro.durability.recovery import HEADER_FILENAME
from repro.durability.snapshots import manifest_filename, manifest_ids
from repro.durability.wal import SEGMENT_FILENAME, WalSegment
from repro.utils.serialization import encode_record, read_json

#: The keys of a delta whose entries belong to one item each, and where
#: in an entry its id sits.
_ENTRY_ID = {
    "documents": lambda entry: entry[1],
    "shots": lambda entry: entry[1],
    "ops": lambda record: record["id"],
}


def segment_of(item_id: str, segments: int) -> int:
    """The segment an older ``segments``-segment build routed ``item_id`` to."""
    return zlib.crc32(item_id.encode("utf-8")) % segments


def segment_filename(segment: int) -> str:
    return f"wal-shard-{segment:04d}.log"


def _delta_filename(checkpoint_id: int, segment: int) -> str:
    return f"delta-cp{checkpoint_id:06d}-shard{segment:04d}.json"


def _write_json(path: Path, payload: Dict[str, object]) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def _split_wal(directory: Path, segments: int) -> None:
    entries, tail_error = WalSegment(directory / SEGMENT_FILENAME).scan_entries()
    assert tail_error is None, tail_error
    framed: List[List[bytes]] = [[] for _ in range(segments)]
    for entry in entries:
        framed[segment_of(entry.record["id"], segments)].append(
            encode_record(entry.payload)
        )
    for segment, frames in enumerate(framed):
        (directory / segment_filename(segment)).write_bytes(b"".join(frames))


def _split_checkpoint(directory: Path, checkpoint_id: int, segments: int) -> None:
    name = manifest_filename(checkpoint_id)
    manifest = read_json(directory / name)
    per_segment: Dict[int, Dict[str, list]] = {}
    for delta_name in manifest["deltas"]:
        delta = read_json(directory / delta_name)
        (directory / delta_name).unlink()
        for key, item_id in _ENTRY_ID.items():
            for entry in delta.get(key, ()):
                segment = segment_of(item_id(entry), segments)
                per_segment.setdefault(segment, {}).setdefault(key, []).append(entry)
    names = []
    for segment in sorted(per_segment):
        payload = {
            "format": manifest["format"],
            "checkpoint_id": checkpoint_id,
            "shard": segment,
            **per_segment[segment],
        }
        names.append(_delta_filename(checkpoint_id, segment))
        _write_json(directory / names[-1], payload)
    _write_json(directory / name, {**manifest, "deltas": names})


def split_into_segments(directory, segments: int) -> Path:
    """Rewrite the closed one-segment ``directory`` as an older build that
    split it over ``segments`` segments would have left it."""
    directory = Path(directory)
    header = read_json(directory / HEADER_FILENAME)
    assert header["num_shards"] == 1 and segments > 1, (header, segments)
    _split_wal(directory, segments)
    for checkpoint_id in manifest_ids(directory):
        _split_checkpoint(directory, checkpoint_id, segments)
    _write_json(directory / HEADER_FILENAME, {**header, "num_shards": segments})
    return directory

"""Serialization helpers: JSON-lines artefacts and binary record framing.

The library persists four kinds of artefacts:

* interaction log files (one JSON object per event line),
* TREC-style run and qrel files (whitespace-separated text),
* collection snapshots (JSON), and
* write-ahead-log segments (binary, length-prefixed, checksummed records).

Only the generic plumbing lives here; format-specific code lives next to
the objects it serialises (``repro.interfaces.logging``,
``repro.evaluation.trec``, ``repro.durability.wal``).

Binary record framing
---------------------

A framed record is ``uvarint(len(payload)) + crc32(payload) (4 bytes,
little-endian) + payload``.  The unsigned LEB128 varint keeps small records
small; the CRC travels *ahead* of the payload so a torn tail (crash mid
``write``) is detected either by the frame running past the end of the
buffer (:class:`TruncatedRecordError`) or by the checksum disagreeing with
whatever bytes did land (:class:`ChecksumMismatchError`).  Readers that
tolerate torn tails — the WAL recovery scan — catch those two errors and
treat the clean prefix as the durable content.

Feature vectors
---------------

The durability tier stores a feature vector as one ASCII string,
``base64(struct.pack("<%dd", *features))`` (:func:`encode_vector`), inside
its JSON records.  ``'<d'`` is IEEE 754 binary64, so every finite double —
signed zeros and subnormals included — round-trips bit for bit.
:func:`decode_vector` also reads the JSON list of numbers that older
directories hold.  No other code knows the encoding.
"""

from __future__ import annotations

import json
import zlib
from base64 import b64decode, b64encode
from pathlib import Path
from struct import pack, unpack
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.errors import InvalidArgumentError, ReproError

PathLike = Union[str, Path]


def write_jsonl(path: PathLike, records: Iterable[Dict[str, Any]]) -> int:
    """Write an iterable of dictionaries to ``path`` as JSON lines.

    Returns the number of records written.  Parent directories are created
    on demand so callers can write straight into experiment output trees.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with target.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: PathLike) -> Iterator[Dict[str, Any]]:
    """Yield dictionaries from a JSON-lines file, skipping blank lines."""
    target = Path(path)
    with target.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            yield json.loads(line)


def read_jsonl_list(path: PathLike) -> List[Dict[str, Any]]:
    """Read an entire JSON-lines file into a list."""
    return list(read_jsonl(path))


def write_json(path: PathLike, payload: Any, indent: int = 2) -> None:
    """Write a JSON document, creating parent directories as needed."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=True)
        handle.write("\n")


def read_json(path: PathLike) -> Any:
    """Read a JSON document."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call: the canonical bytes of WAL payloads and
#: checkpoint files.  ASCII-only (``ensure_ascii``), and safe to share
#: across threads (``encode`` keeps no state between calls).
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# -- feature vectors ----------------------------------------------------------------


class VectorDecodeError(ValueError, ReproError):
    """A stored feature vector is neither packed float64s nor a list of numbers."""


def encode_vector(values: Sequence[float]) -> str:
    """One feature vector as base64 of its little-endian float64s.

    32 random components take 344 ASCII characters, where shortest-repr
    JSON takes ~615 and ~15x the time (21 against 1.4 µs on a 2-core
    x86-64 VM, CPython 3.11).  Components with short decimal forms
    (``0.125``) pack larger than they print.
    """
    return b64encode(pack(f"<{len(values)}d", *values)).decode("ascii")


def decode_vector(value: object) -> List[float]:
    """The floats of an :func:`encode_vector` string, or of a JSON list of
    numbers (how older durability directories stored a vector).

    Raises :class:`VectorDecodeError` for a character outside the base64
    alphabet (``validate=True``; the default silently drops them), a byte
    count that is not a whole number of float64s, a list element that is
    not a number, or a value of any other type.
    """
    if isinstance(value, str):
        try:
            raw = b64decode(value, validate=True)
        except ValueError as error:  # binascii.Error, or a non-ASCII str
            raise VectorDecodeError(f"feature vector is not base64: {error}") from None
        if len(raw) % 8:
            raise VectorDecodeError(
                f"feature vector holds {len(raw)} bytes, not whole float64s"
            )
        return list(unpack(f"<{len(raw) // 8}d", raw))
    if isinstance(value, list):
        try:
            return [float(component) for component in value]
        except (TypeError, ValueError) as error:
            raise VectorDecodeError(f"feature vector list: {error}") from None
    raise VectorDecodeError(
        f"feature vector must be a base64 string or a list, got "
        f"{type(value).__name__}"
    )


# -- binary record framing (uvarint length prefix + CRC32) ------------------------


class RecordError(ValueError, ReproError):
    """A framed record could not be decoded."""


class TruncatedRecordError(RecordError):
    """The buffer ends before the framed record does (a torn tail)."""


class ChecksumMismatchError(RecordError):
    """The payload's CRC32 disagrees with the frame header (corruption)."""


#: Size of the fixed CRC32 field that follows the varint length prefix.
_CRC_BYTES = 4


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned LEB128 varint."""
    if value < 0:
        raise InvalidArgumentError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode an unsigned LEB128 varint; returns ``(value, next_offset)``.

    Raises :class:`TruncatedRecordError` if the buffer ends mid-varint.
    """
    value = 0
    shift = 0
    position = offset
    length = len(data)
    while True:
        if position >= length:
            raise TruncatedRecordError(
                f"buffer ends mid-varint at offset {offset}"
            )
        byte = data[position]
        position += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, position
        shift += 7
        if shift > 63:
            raise RecordError(f"varint at offset {offset} exceeds 64 bits")


def encode_record(payload: bytes) -> bytes:
    """Frame a payload: ``uvarint(length) + crc32(payload) + payload``."""
    return (
        encode_uvarint(len(payload))
        + zlib.crc32(payload).to_bytes(_CRC_BYTES, "little")
        + payload
    )


def decode_record(data: bytes, offset: int = 0) -> Tuple[bytes, int]:
    """Decode one framed record; returns ``(payload, next_offset)``.

    Raises :class:`TruncatedRecordError` when the buffer ends before the
    frame does, and :class:`ChecksumMismatchError` when the payload's CRC
    disagrees with the header.
    """
    length, position = decode_uvarint(data, offset)
    end = position + _CRC_BYTES + length
    if end > len(data):
        raise TruncatedRecordError(
            f"record at offset {offset} needs {end - len(data)} more byte(s)"
        )
    expected = int.from_bytes(data[position : position + _CRC_BYTES], "little")
    payload = data[position + _CRC_BYTES : end]
    actual = zlib.crc32(payload)
    if actual != expected:
        raise ChecksumMismatchError(
            f"record at offset {offset}: crc32 {actual:#010x} != stored "
            f"{expected:#010x}"
        )
    return payload, end


def iter_records(data: bytes) -> Iterator[bytes]:
    """Yield every framed payload in a buffer (strict: errors propagate)."""
    offset = 0
    length = len(data)
    while offset < length:
        payload, offset = decode_record(data, offset)
        yield payload


def scan_records(data: bytes) -> Tuple[List[bytes], int, "RecordError | None"]:
    """Decode the clean prefix of a record buffer, tolerating a broken tail.

    Returns ``(payloads, clean_end_offset, tail_error)``: every record up
    to the first torn or corrupt frame, the byte offset that prefix ends
    at, and the error that stopped the scan (``None`` when the whole
    buffer decoded).  This is the WAL recovery read: everything before the
    damage is durable, everything at and after it is discarded.
    """
    payloads: List[bytes] = []
    offset = 0
    length = len(data)
    while offset < length:
        try:
            payload, next_offset = decode_record(data, offset)
        except RecordError as error:
            return payloads, offset, error
        payloads.append(payload)
        offset = next_offset
    return payloads, offset, None

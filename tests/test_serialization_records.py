"""Direct unit tests for the binary record framing in ``utils.serialization``.

The WAL's crash-safety argument rests entirely on this framing: a torn
tail must always be detected (truncation or checksum), and the clean
prefix before any damage must always decode to exactly the payloads that
were written.  These tests pin the format byte-for-byte, independent of
the durability modules built on top.

The feature-vector encoding the durability tier stores shots with is held
to the same standard: every finite double round-trips bit for bit (compared
by ``float.hex()``, so ``-0.0`` is not ``0.0``), the JSON lists older
directories hold decode to the same floats, and each kind of damage is a
typed one-line error.  Three mutants of the real source show the checks
have teeth.
"""

from __future__ import annotations

import base64
import inspect
import json
import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils import serialization
from repro.utils.serialization import (
    ChecksumMismatchError,
    RecordError,
    TruncatedRecordError,
    VectorDecodeError,
    decode_record,
    decode_uvarint,
    decode_vector,
    encode_record,
    encode_uvarint,
    encode_vector,
    iter_records,
    scan_records,
)


class TestUvarint:
    @pytest.mark.parametrize(
        "value", (0, 1, 127, 128, 129, 16383, 16384, 2**32 - 1, 2**32, 2**63 - 1)
    )
    def test_roundtrip(self, value):
        encoded = encode_uvarint(value)
        decoded, offset = decode_uvarint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_single_byte_below_128(self):
        assert encode_uvarint(0) == b"\x00"
        assert encode_uvarint(127) == b"\x7f"
        assert encode_uvarint(128) == b"\x80\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_offset_decoding(self):
        buffer = b"\xff" + encode_uvarint(300)
        value, offset = decode_uvarint(buffer, offset=1)
        assert value == 300
        assert offset == len(buffer)

    def test_truncated_mid_varint(self):
        with pytest.raises(TruncatedRecordError):
            decode_uvarint(b"\x80")

    def test_oversized_varint_rejected(self):
        with pytest.raises(RecordError):
            decode_uvarint(b"\x80" * 10 + b"\x01")


class TestRecordFraming:
    def test_roundtrip(self):
        payload = b'{"op":"doc","id":"x"}'
        frame = encode_record(payload)
        decoded, offset = decode_record(frame)
        assert decoded == payload
        assert offset == len(frame)

    def test_layout_is_len_crc_payload(self):
        payload = b"hello"
        frame = encode_record(payload)
        assert frame[0] == len(payload)
        assert frame[1:5] == zlib.crc32(payload).to_bytes(4, "little")
        assert frame[5:] == payload

    def test_empty_payload(self):
        frame = encode_record(b"")
        assert decode_record(frame) == (b"", len(frame))

    def test_truncated_tail_detected(self):
        frame = encode_record(b"abcdef")
        for cut in range(1, len(frame)):
            with pytest.raises(TruncatedRecordError):
                decode_record(frame[:-cut])

    def test_checksum_mismatch_detected(self):
        frame = bytearray(encode_record(b"abcdef"))
        # Flip one payload byte; the stored CRC no longer matches.
        frame[-1] ^= 0xFF
        with pytest.raises(ChecksumMismatchError):
            decode_record(bytes(frame))

    def test_corrupt_header_crc_detected(self):
        frame = bytearray(encode_record(b"abcdef"))
        frame[1] ^= 0x01  # CRC field itself
        with pytest.raises(ChecksumMismatchError):
            decode_record(bytes(frame))


class TestBufferScans:
    def _buffer(self, payloads):
        return b"".join(encode_record(payload) for payload in payloads)

    def test_iter_records_strict(self):
        payloads = [b"a", b"bb", b"", b"ccc"]
        assert list(iter_records(self._buffer(payloads))) == payloads

    def test_iter_records_raises_on_torn_tail(self):
        buffer = self._buffer([b"a", b"bb"]) + encode_record(b"ccc")[:-2]
        with pytest.raises(TruncatedRecordError):
            list(iter_records(buffer))

    def test_scan_clean_buffer(self):
        payloads = [b"a", b"bb"]
        buffer = self._buffer(payloads)
        decoded, end, error = scan_records(buffer)
        assert decoded == payloads
        assert end == len(buffer)
        assert error is None

    def test_scan_returns_prefix_before_torn_tail(self):
        clean = self._buffer([b"a", b"bb"])
        buffer = clean + encode_record(b"ccc")[:-1]
        decoded, end, error = scan_records(buffer)
        assert decoded == [b"a", b"bb"]
        assert end == len(clean)
        assert isinstance(error, TruncatedRecordError)

    def test_scan_stops_at_corruption_mid_buffer(self):
        frames = [bytearray(encode_record(p)) for p in (b"aaaa", b"bbbb", b"cccc")]
        frames[1][-2] ^= 0x10
        decoded, end, error = scan_records(b"".join(bytes(f) for f in frames))
        # Only the records before the corrupt frame survive — the third
        # record is unreachable even though its own bytes are intact.
        assert decoded == [b"aaaa"]
        assert end == len(frames[0])
        assert isinstance(error, ChecksumMismatchError)

    def test_scan_empty_buffer(self):
        assert scan_records(b"") == ([], 0, None)


# -- feature vectors ----------------------------------------------------------------

SMALLEST_SUBNORMAL = float.fromhex("0x0.0000000000001p-1022")
LARGEST_SUBNORMAL = float.fromhex("0x0.fffffffffffffp-1022")

#: Signed zeros, both ends of the subnormal range, both ends of the finite
#: range, and decimals with no short binary form.
EDGE_VALUES = [
    -0.0, 0.0, SMALLEST_SUBNORMAL, -LARGEST_SUBNORMAL, 1.7e308, -1.7e308, 0.1, 1 / 3
]

PACKED = encode_vector([0.5, -0.0, 1e-300])

#: ``(label, stored value)`` pairs ``decode_vector`` must refuse.
UNDECODABLE = (
    # The default decoder drops the '*' and returns the three floats.
    ("junk character", PACKED[:8] + "*" + PACKED[8:]),
    ("non-ascii", "é" + PACKED),
    ("bad padding", PACKED[:-1]),
    ("twelve bytes", base64.b64encode(bytes(12)).decode("ascii")),
    ("number", 0.5),
    ("mapping", {"features": PACKED}),
    ("none", None),
    ("list of words", ["flood"]),
    ("nested list", [[0.5]]),
)


def _hexed(values):
    return [value.hex() for value in values]


def check_round_trip(encode, decode, values):
    """``values`` decode bit for bit, packed and as the JSON list formats 1
    and 2 stored; raises ``AssertionError`` otherwise."""
    for store in (encode, lambda floats: json.loads(json.dumps(floats))):
        try:
            stored = store(values)
            decoded = decode(stored)
        except Exception as error:
            raise AssertionError(f"{values!r} did not round-trip: {error!r}") from None
        assert all(type(value) is float for value in decoded), stored
        assert _hexed(decoded) == _hexed(values), stored


def check_refused(decode, stored):
    """``stored`` raises a one-line ``VectorDecodeError``."""
    try:
        decode(stored)
    except VectorDecodeError as error:
        assert "\n" not in str(error), str(error)
        return
    raise AssertionError(f"{stored!r} decoded")


def check_codec(encode, decode):
    for values in ([], EDGE_VALUES, [float(index) for index in range(64)]):
        check_round_trip(encode, decode, values)
    for _, stored in UNDECODABLE:
        check_refused(decode, stored)


class TestFeatureVectors:
    def test_layout_is_base64_of_little_endian_float64s(self):
        assert encode_vector([1.0, -2.5]) == base64.b64encode(
            struct.pack("<2d", 1.0, -2.5)
        ).decode("ascii")
        assert encode_vector([]) == ""
        assert PACKED.isascii() and "\n" not in PACKED

    def test_takes_any_sequence_of_numbers(self):
        assert encode_vector((1, 0.5)) == encode_vector([1.0, 0.5])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64))
    @example(EDGE_VALUES)
    @example([-0.0])
    @example([SMALLEST_SUBNORMAL, LARGEST_SUBNORMAL])
    @example([1.7e308] * 64)
    @example([])
    @settings(max_examples=400, deadline=None)
    def test_round_trip_is_bit_exact(self, values):
        check_round_trip(encode_vector, decode_vector, values)

    @pytest.mark.parametrize("label, stored", UNDECODABLE, ids=[u[0] for u in UNDECODABLE])
    def test_damage_is_a_typed_one_line_error(self, label, stored):
        check_refused(decode_vector, stored)

    @pytest.mark.parametrize(
        "original, mutated, count, failure",
        [
            # '<f' for '<d' in pack and unpack.
            ('}d"', '}f"', 2, "did not round-trip"),
            (
                "b64decode(value, validate=True)",
                "b64decode(value, validate=False)",
                1,
                r"\*.* decoded",
            ),
            # The list branch dropped: format-1 and format-2 vectors unreadable.
            ("isinstance(value, list)", "False", 1, r"did not round-trip: VectorDecodeError"),
        ],
    )
    def test_codec_checks_fail_on_mutants(self, original, mutated, count, failure):
        namespace = dict(vars(serialization))
        found = 0
        for function in (encode_vector, decode_vector):
            source = inspect.getsource(function)
            found += source.count(original)
            exec(source.replace(original, mutated), namespace)
        assert found == count
        with pytest.raises(AssertionError, match=failure):
            check_codec(namespace["encode_vector"], namespace["decode_vector"])

"""Shared utilities: deterministic RNG management, concurrency primitives,
validation and serialization."""

from repro.utils.concurrency import (
    CancellationToken,
    OperationCancelledError,
    ReadWriteLock,
    cancellation_scope,
    checkpoint_if_cancelled,
    current_cancellation_token,
)
from repro.utils.rng import RandomSource, derive_seed, spawn_rng
from repro.utils.serialization import (
    read_json,
    read_jsonl,
    read_jsonl_list,
    write_json,
    write_jsonl,
)
from repro.utils.validation import (
    ensure_in_range,
    ensure_non_empty,
    ensure_number,
    ensure_positive,
    ensure_probability,
    ensure_type,
)

__all__ = [
    "CancellationToken",
    "OperationCancelledError",
    "ReadWriteLock",
    "cancellation_scope",
    "checkpoint_if_cancelled",
    "current_cancellation_token",
    "RandomSource",
    "derive_seed",
    "spawn_rng",
    "read_json",
    "read_jsonl",
    "read_jsonl_list",
    "write_json",
    "write_jsonl",
    "ensure_in_range",
    "ensure_non_empty",
    "ensure_number",
    "ensure_positive",
    "ensure_probability",
    "ensure_type",
]

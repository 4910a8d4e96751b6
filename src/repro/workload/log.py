"""The canonical log every workload run is judged by.

One JSON record per line, keys sorted and no spaces
(:func:`~repro.utils.serialization.canonical_json`), a trailing newline;
its SHA-256 is the run's digest.  Every field of a record is a pure
function of the workload's spec and corpus, never of wall-clock order, so
two runs of one spec must write the same bytes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List

from repro.utils.serialization import PathLike, canonical_json


class CanonicalLog:
    """The canonical log of a run's ``records`` (a mixin for its result)."""

    records: List[Dict[str, object]]

    def canonical_lines(self) -> List[str]:
        """The canonical log as JSON lines (sorted keys, no spaces)."""
        return [canonical_json(record) for record in self.records]

    def canonical_log(self) -> str:
        """The canonical log as one string (trailing newline)."""
        return "\n".join(self.canonical_lines()) + "\n"

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical log."""
        return hashlib.sha256(self.canonical_log().encode("utf-8")).hexdigest()

    def write_log(self, path: PathLike) -> Path:
        """Write the canonical log to a file and return its path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.canonical_log(), encoding="utf-8")
        return path

"""Interaction log files.

The paper's methodology is built around "analysing the resulting logfiles"
of user (or simulated-user) sessions.  A log file here is a JSON-lines file:
the first record is a session header (who, which interface, which topic),
followed by one record per :class:`~repro.feedback.events.InteractionEvent`.
The same format is written by live sessions and read back by the replay and
log-analysis tools, so logged studies are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.errors import InvalidArgumentError
from repro.feedback.events import EventStream, InteractionEvent
from repro.utils.serialization import read_jsonl, write_jsonl

PathLike = Union[str, Path]

_HEADER_KIND = "__session_header__"


@dataclass
class SessionLog:
    """One logged session: header metadata plus the ordered event stream."""

    session_id: str
    user_id: str
    interface: str
    topic_id: Optional[str] = None
    task: Optional[str] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    events: List[InteractionEvent] = field(default_factory=list)

    def event_stream(self) -> EventStream:
        """The session's events as an :class:`EventStream`."""
        return EventStream(self.events)

    def header(self) -> Dict[str, object]:
        """The header record written at the top of the log file."""
        return {
            "kind": _HEADER_KIND,
            "session_id": self.session_id,
            "user_id": self.user_id,
            "interface": self.interface,
            "topic_id": self.topic_id,
            "task": self.task,
            "metadata": dict(self.metadata),
        }

    @property
    def event_count(self) -> int:
        """Number of events in the session."""
        return len(self.events)

    def duration_seconds(self) -> float:
        """Session duration from first to last event timestamp."""
        if not self.events:
            return 0.0
        timestamps = [event.timestamp for event in self.events]
        return max(timestamps) - min(timestamps)


class InteractionLogger:
    """Writes and reads session log files."""

    def write_session(self, log: SessionLog, path: PathLike) -> int:
        """Write one session to a log file; returns the record count."""
        records: List[Dict[str, object]] = [log.header()]
        records.extend(event.as_dict() for event in log.events)
        return write_jsonl(path, records)

    def write_sessions(self, logs: Iterable[SessionLog], directory: PathLike) -> List[Path]:
        """Write each session to ``<directory>/<session_id>.jsonl``."""
        directory = Path(directory)
        paths: List[Path] = []
        for log in logs:
            target = directory / f"{log.session_id}.jsonl"
            self.write_session(log, target)
            paths.append(target)
        return paths

    def read_session(self, path: PathLike) -> SessionLog:
        """Read one session log file."""
        records = list(read_jsonl(path))
        if not records:
            raise InvalidArgumentError(f"log file {path} is empty")
        header = records[0]
        if header.get("kind") != _HEADER_KIND:
            raise InvalidArgumentError(
                f"log file {path} does not start with a session header"
            )
        events = [InteractionEvent.from_dict(record) for record in records[1:]]
        return SessionLog(
            session_id=str(header["session_id"]),
            user_id=str(header["user_id"]),
            interface=str(header["interface"]),
            topic_id=header.get("topic_id"),
            task=header.get("task"),
            metadata=dict(header.get("metadata", {})),
            events=events,
        )

    def read_sessions(self, directory: PathLike) -> List[SessionLog]:
        """Read every ``*.jsonl`` session log in a directory (sorted by name)."""
        directory = Path(directory)
        logs: List[SessionLog] = []
        for path in sorted(directory.glob("*.jsonl")):
            logs.append(self.read_session(path))
        return logs

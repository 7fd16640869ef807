"""JSON-lines structured logging for the serving tier.

One :class:`StructuredLogger` per server: every event is a single JSON
object on one line (machine-parseable, greppable), carrying the event name,
a wall-clock timestamp, and whatever fields the call site supplies — for
HTTP access logs that includes the ``request_id`` echoed in the response,
which is the correlation handle between a log line and the ``/v1/prescribe``
payload a client saw.

The logger honours the server's ``quiet`` flag through ``enabled`` (a
disabled logger discards everything before serialising), and serialisation
never raises: non-JSON values are stringified via ``default=str``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import uuid
from typing import IO


def new_request_id() -> str:
    """A short, unique request correlation id (12 hex chars)."""
    return uuid.uuid4().hex[:12]


class StructuredLogger:
    """Writes one JSON object per line to a stream (stderr by default)."""

    def __init__(
        self,
        stream: IO[str] | None = None,
        enabled: bool = True,
        component: str = "",
    ) -> None:
        self._stream = stream
        self.enabled = enabled
        self.component = component
        self._lock = threading.Lock()

    def log(self, event: str, **fields: object) -> None:
        """Emit one structured event (no-op when disabled)."""
        if not self.enabled:
            return
        record: dict = {"ts": round(time.time(), 6), "event": event}
        if self.component:
            record["component"] = self.component
        record.update(fields)
        line = json.dumps(record, default=str)
        stream = self._stream if self._stream is not None else sys.stderr
        with self._lock:
            stream.write(line + "\n")
            try:
                stream.flush()
            except OSError:  # pragma: no cover - closed stream on shutdown
                pass

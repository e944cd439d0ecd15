"""Trace/report serialization: valid JSON, CSV, and the trace hash.

Every JSON document the project exports goes through :func:`dumps`,
which recursively replaces non-finite floats (``inf``, ``-inf``,
``nan``) with ``None`` -- ``json.dumps`` would otherwise emit the
non-standard tokens ``Infinity``/``NaN`` and produce output most
parsers reject.  ``allow_nan=False`` backstops the sanitizer: a
non-finite value slipping through is a bug, not a silently broken
report.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, List

from repro.obs.recorder import TraceEvent


def sanitize(value: Any) -> Any:
    """Recursively replace non-finite floats with ``None`` so the result
    serializes to *valid* JSON.  Dict keys are coerced to strings (JSON
    has no integer keys); tuples become lists."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    return value


def dumps(value: Any, **kwargs: Any) -> str:
    """``json.dumps`` over the sanitized value; always valid JSON."""
    return json.dumps(sanitize(value), allow_nan=False, **kwargs)


def trace_to_csv(events: Iterable[TraceEvent]) -> str:
    """The trace as CSV (header + one row per span)."""
    lines: List[str] = ["cycle,component,event,packet_id,detail"]
    for e in events:
        pid = "" if e.packet_id is None else str(e.packet_id)
        detail = "" if e.detail is None else str(e.detail)
        lines.append(f"{e.cycle},{e.component},{e.event},{pid},{detail}")
    return "\n".join(lines) + "\n"


def trace_hash(events: Iterable[TraceEvent]) -> str:
    """SHA-256 over the canonical rendering of the event stream.

    Same seed -> same simulation -> same hash; the determinism suite
    asserts this across runs and against the reference heap scheduler.
    """
    digest = hashlib.sha256()
    for e in events:
        digest.update(
            f"{e.cycle}|{e.component}|{e.event}|{e.packet_id}|{e.detail}\n".encode()
        )
    return digest.hexdigest()

"""Flight recorder: an always-on, fixed-cost ring of recent happenings.

Traces and metrics answer "how is the pipeline behaving" while the
process is alive; the flight recorder answers "what happened just
before it died".  It is a bounded ring buffer of small structured
records — detections, rule firings, lock waits over a threshold, WAL
forces and group-commit batches, fault-point activations, quarantine
and dead-letter transitions — that every subsystem appends to at a cost
low enough to leave on in production (one deque append; the ring evicts
oldest-first by construction).

Unlike the tracer, the recorder is **on by default**
(``ExecutionConfig(flight_recorder=False)`` swaps in the shared
:data:`NULL_FLIGHT`) and is independent of ``config.observability``: the
post-mortem record must exist precisely when nobody was watching.

The ring is dumped to ``<dbdir>/flight/`` as JSONL — a header line
followed by one record per line — on a simulated crash
(``StorageManager.crash``), on an exception escaping the engine's
``with`` block, or on demand via ``db.flight_recorder().dump()``.  The
crash-torture harness re-reads the dump after recovery and checks its
last WAL record against the recovered log's cut point
(:mod:`repro.bench.crash_torture`).
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from collections import deque
from typing import Any, Optional

#: bumped when the dump header/record layout changes incompatibly.
DUMP_FORMAT = "reach-flight-v1"


class FlightRecorder:
    """Bounded ring of ``(seq, wall_ts, category, fields)`` records.

    ``record`` is the hot path: one seq increment, one clock read, one
    ``deque.append`` (which evicts the oldest entry once ``capacity`` is
    reached — fixed memory, no explicit trimming).  Thread safety leans
    on the GIL the same way the metrics registry does: the seq draw and
    the append are each one C call, readers copy, ``recorded`` is read
    off the seq counter itself (so it is exact under concurrent
    writers), and the drop count is derived (``recorded`` - retained)
    rather than kept as a mutable ledger.
    """

    enabled = True

    def __init__(self, capacity: int = 4096,
                 directory: Optional[str] = None):
        self.capacity = capacity
        #: default dump target (the database directory); ``dump`` writes
        #: into ``<directory>/flight/``.
        self.directory = directory
        self._ring: deque = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        self._next_seq = self._seq.__next__
        self._dump_lock = threading.Lock()
        self._dump_count = 0

    # -- recording (hot path) ------------------------------------------------

    def record(self, category: str, **fields: Any) -> None:
        """Append one happening; never blocks, never raises on overflow."""
        self._ring.append((self._next_seq(), time.time(), category, fields))

    def append(self, category: str, item: Any) -> None:
        """Append ``item``, a record also kept elsewhere (a firing-log
        entry); its ``flight_fields()`` are built only when the ring is
        read or dumped."""
        self._ring.append((self._next_seq(), time.time(), category, item))

    # -- introspection -------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Total records ever appended (retained + overwritten): the
        seqs drawn so far, read from the counter's repr, ``count(N)``."""
        return int(repr(self._seq)[6:-1]) - 1

    @property
    def dropped(self) -> int:
        """Records overwritten by ring wrap-around."""
        return max(0, self.recorded - len(self._ring))

    def entries(self, category: Optional[str] = None) -> list[dict[str, Any]]:
        """Retained records oldest-first, as dicts (optionally filtered)."""
        out = []
        for seq, ts, cat, fields in list(self._ring):
            if category is not None and cat != category:
                continue
            out.append({"seq": seq, "ts": ts, "category": cat,
                        **_fields(fields)})
        return out

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable state for ``db.statistics()["flight"]``."""
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "retained": len(self._ring),
            "dropped": self.dropped,
            "dumps": self._dump_count,
        }

    def clear(self) -> None:
        self._ring.clear()

    # -- dumping -------------------------------------------------------------

    def dump(self, reason: str = "on-demand",
             directory: Optional[str] = None) -> Optional[str]:
        """Write the retained ring to ``<dir>/flight/`` as JSONL.

        The file is fsynced before returning so a dump taken at (simulated)
        crash time survives the crash.  Returns the path, or ``None`` when
        no target directory is known.
        """
        target = directory or self.directory
        if target is None:
            return None
        entries = list(self._ring)
        with self._dump_lock:
            self._dump_count += 1
            number = self._dump_count
        flight_dir = os.path.join(target, "flight")
        os.makedirs(flight_dir, exist_ok=True)
        safe_reason = re.sub(r"[^A-Za-z0-9_.-]+", "-", reason) or "dump"
        path = os.path.join(flight_dir,
                            f"flight-{number:03d}-{safe_reason}.jsonl")
        header = {
            "format": DUMP_FORMAT,
            "reason": reason,
            "wall_ts": time.time(),
            "capacity": self.capacity,
            "recorded": self.recorded,
            "retained": len(entries),
            "dropped": max(0, self.recorded - len(entries)),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, default=repr) + "\n")
            for seq, ts, category, fields in entries:
                record = {"seq": seq, "ts": ts, "category": category}
                record.update(_fields(fields))
                fh.write(json.dumps(record, default=repr) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return path

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (f"<FlightRecorder capacity={self.capacity} "
                f"retained={len(self._ring)} recorded={self.recorded}>")


def _fields(entry: Any) -> dict[str, Any]:
    """A ring entry's fields: the dict :meth:`FlightRecorder.record`
    stored, or those of an item :meth:`FlightRecorder.append` stored."""
    return entry if type(entry) is dict else entry.flight_fields()


def load_dump(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse a dump file back into ``(header, records)``.

    Used by the crash-torture harness to validate the post-crash record
    against the recovered WAL, and handy for ad-hoc post-mortems.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty flight dump: {path}")
    header = json.loads(lines[0])
    if header.get("format") != DUMP_FORMAT:
        raise ValueError(f"not a flight dump (format={header.get('format')!r}): "
                         f"{path}")
    return header, [json.loads(line) for line in lines[1:]]


def latest_dump(directory: str) -> Optional[str]:
    """Path of the newest dump under ``<directory>/flight/``, if any."""
    flight_dir = os.path.join(directory, "flight")
    if not os.path.isdir(flight_dir):
        return None
    names = sorted(name for name in os.listdir(flight_dir)
                   if name.startswith("flight-") and name.endswith(".jsonl"))
    return os.path.join(flight_dir, names[-1]) if names else None


class _NullFlightRecorder(FlightRecorder):
    """Shared no-op recorder for ``flight_recorder=False`` engines and
    components not wired to an engine; mirrors ``NULL_METRICS``."""

    enabled = False

    def __init__(self):
        super().__init__(capacity=0, directory=None)

    def record(self, category: str, **fields: Any) -> None:
        pass

    def append(self, category: str, item: Any) -> None:
        pass

    def dump(self, reason: str = "on-demand",
             directory: Optional[str] = None) -> Optional[str]:
        return None


NULL_FLIGHT = _NullFlightRecorder()

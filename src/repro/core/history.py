"""Distributed event histories.

Each ECA-manager "create[s] an event object and keep[s] local histories of
the created event occurrences.  The maintenance of a highly distributed
history eliminates the bottleneck that would result from centrally logging
the occurrence of events.  ...  a global history is maintained by a
background process after a transaction has committed or has been aborted"
(paper, Section 6.3).

:class:`LocalHistory` is the per-manager log; :class:`GlobalHistory`
collects entries from all local histories once the originating transaction
finishes (or immediately for transaction-less temporal events pending the
next merge).  Because every occurrence carries a global sequence number,
the merged history is totally ordered without any central lock on the
detection path — that absence is what benchmark E7 measures.

Two scaling refinements ride on that same sequence-number property:

* **Segmented local histories** — a :class:`LocalHistory` with
  ``segments > 1`` (the ECA-managers build theirs with
  :data:`HISTORY_SEGMENTS`) shards its append log by recording thread, so
  sessions recording into the same manager do not serialize on one lock.
  ``entries()`` re-establishes the total order by sorting on ``seq``.
* **Lazy global merge** — ``merge_transaction``/``merge_transactionless``
  are O(1) enqueue operations; the O(total-history) gather-and-filter
  runs batched at the next *read* (``entries``, ``__len__``,
  ``iter_transaction``, ``drain``, ``prune_before``).  This is safe
  precisely because occurrences carry global sequence numbers: merging
  late cannot lose, duplicate, or reorder anything — the merged view is
  a pure function of which occurrences exist, not of when the merge ran
  (see DESIGN.md).  Commits that used to pay a full history scan each
  now pay a list append.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Optional

from repro.core.events import EventOccurrence
from repro.obs.metrics import NULL_METRICS, MetricsRegistry

#: Append segments in each ECA-manager's local history.
HISTORY_SEGMENTS = 8


class _Segment:
    """One independently locked shard of a local history."""

    __slots__ = ("lock", "entries", "recorded")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: list[EventOccurrence] = []
        self.recorded = 0


class LocalHistory:
    """Per-ECA-manager append-only log of event occurrences.

    With ``segments == 1`` (the default) this is a single list under a
    single lock and ``entries()`` preserves insertion order.  With
    ``segments > 1`` each recording thread hashes onto its own segment
    (own lock, own list) and ``entries()`` merges them sorted by global
    sequence number; ``capacity`` then bounds each segment at
    ``ceil(capacity / segments)`` so the total stays within one segment's
    worth of the requested bound.
    """

    def __init__(self, name: str, capacity: Optional[int] = None,
                 segments: int = 1):
        if segments < 1:
            raise ValueError("segments must be >= 1")
        self.name = name
        self.capacity = capacity
        self.segments = segments
        self._segment_capacity = (
            None if capacity is None
            else max(1, -(-capacity // segments)))
        self._segs = tuple(_Segment() for _ in range(segments))

    def _segment(self) -> _Segment:
        if len(self._segs) == 1:
            return self._segs[0]
        return self._segs[threading.get_ident() % len(self._segs)]

    def record(self, occ: EventOccurrence) -> None:
        seg = self._segment()
        with seg.lock:
            seg.entries.append(occ)
            seg.recorded += 1
            cap = self._segment_capacity
            if cap is not None and len(seg.entries) > cap:
                del seg.entries[:len(seg.entries) - cap]

    @property
    def recorded(self) -> int:
        """Total occurrences ever recorded (across segments)."""
        return sum(seg.recorded for seg in self._segs)

    def entries(self) -> list[EventOccurrence]:
        if len(self._segs) == 1:
            seg = self._segs[0]
            with seg.lock:
                return list(seg.entries)
        gathered: list[EventOccurrence] = []
        for seg in self._segs:
            with seg.lock:
                gathered.extend(seg.entries)
        gathered.sort(key=lambda occ: occ.seq)
        return gathered

    def __len__(self) -> int:
        return sum(len(seg.entries) for seg in self._segs)

    def clear(self) -> None:
        for seg in self._segs:
            with seg.lock:
                seg.entries.clear()


class GlobalHistory:
    """The merged, totally ordered history of all managers.

    ``merge_transaction(tx_id)`` asks for every not-yet-merged occurrence
    that originated (at least partly) in the finished transaction;
    ``merge_transactionless()`` for temporal/no-transaction occurrences.
    Both merely enqueue the request (O(1) under a short lock); the actual
    gather-and-filter is batched at the next read, or at an explicit
    :meth:`drain`, which returns how many entries it added.
    ``merge_lag`` exposes how many requests are pending.
    """

    def __init__(self, metrics: MetricsRegistry = NULL_METRICS) -> None:
        self._lock = threading.Lock()
        self._entries: list[EventOccurrence] = []
        self._merged_seqs: set[int] = set()
        self._sources: list[LocalHistory] = []
        self.merge_operations = 0
        self.deferred_requests = 0
        # Pending merge requests; tiny critical section (commit path).
        self._pending_lock = threading.Lock()
        self._pending_txs: set[int] = set()
        self._pending_txless = False
        self._m_merges = metrics.counter("history.merges")
        self._m_merged_entries = metrics.counter("history.merged_entries")
        self._m_deferred = metrics.counter("history.merges_deferred")

    def attach_source(self, local: LocalHistory) -> None:
        with self._lock:
            self._sources.append(local)

    def detach_source(self, local: LocalHistory) -> None:
        with self._lock:
            if local in self._sources:
                self._sources.remove(local)

    # ------------------------------------------------------------------

    def merge_transaction(self, tx_id: int) -> None:
        """Request the merge of all occurrences involving top-level
        transaction ``tx_id``; applied at the next read or drain."""
        with self._pending_lock:
            self._pending_txs.add(tx_id)
            self.deferred_requests += 1
        self._m_deferred.inc()

    def merge_transactionless(self) -> None:
        """Request the merge of occurrences that originated in no
        transaction; applied at the next read or drain."""
        with self._pending_lock:
            self._pending_txless = True
            self.deferred_requests += 1
        self._m_deferred.inc()

    def merge_all(self) -> int:
        """Merge everything (maintenance / shutdown)."""
        with self._pending_lock:
            self._pending_txs.clear()
            self._pending_txless = False
        return self._merge(lambda occ: True)

    @property
    def merge_lag(self) -> int:
        """Merge requests not yet applied."""
        with self._pending_lock:
            return len(self._pending_txs) + (1 if self._pending_txless
                                             else 0)

    def drain(self) -> int:
        """Apply all pending merge requests in one batched scan.

        Readers call this implicitly; it is also the hook a background
        maintenance thread would use.  Returns entries added.
        """
        with self._pending_lock:
            if not self._pending_txs and not self._pending_txless:
                return 0
            txs = frozenset(self._pending_txs)
            txless = self._pending_txless
            self._pending_txs.clear()
            self._pending_txless = False

        def wanted(occ: EventOccurrence) -> bool:
            if txless and not occ.tx_ids:
                return True
            return not occ.tx_ids.isdisjoint(txs)

        return self._merge(wanted)

    def _merge(self, wanted: Callable[[EventOccurrence], bool]) -> int:
        with self._lock:
            sources = list(self._sources)
        gathered: list[EventOccurrence] = []
        for source in sources:
            gathered.extend(source.entries())
        with self._lock:
            added = 0
            for occ in gathered:
                if occ.seq in self._merged_seqs or not wanted(occ):
                    continue
                self._entries.append(occ)
                self._merged_seqs.add(occ.seq)
                added += 1
            if added:
                self._entries.sort(key=lambda occ: occ.seq)
            self.merge_operations += 1
            self._m_merges.inc()
            self._m_merged_entries.inc(added)
            return added

    # ------------------------------------------------------------------

    def entries(self) -> list[EventOccurrence]:
        self.drain()
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        self.drain()
        with self._lock:
            return len(self._entries)

    def iter_transaction(self, tx_id: int) -> Iterator[EventOccurrence]:
        """Occurrences of one transaction, in global order — the view a
        compensation step would need (the 'price' of distribution the
        paper accepts)."""
        for occ in self.entries():
            if tx_id in occ.tx_ids:
                yield occ

    def stats(self) -> dict:
        """Merge-machinery counters for ``db.concurrency_stats()``."""
        return {
            "merge_operations": self.merge_operations,
            "deferred_requests": self.deferred_requests,
            "merge_lag": self.merge_lag,
            "merged_entries": len(self._entries),
        }

    def prune_before(self, seq: int) -> int:
        """Drop merged entries with ``occ.seq < seq`` (and also clear
        them from the attached local histories) so long-running systems
        can bound history growth once compensation can no longer need
        the old entries.  Returns the number of global entries dropped.
        """
        self.drain()
        with self._lock:
            before = len(self._entries)
            self._entries = [occ for occ in self._entries
                             if occ.seq >= seq]
            dropped = before - len(self._entries)
            # Keep idempotence bookkeeping for retained entries only.
            self._merged_seqs = {s for s in self._merged_seqs if s >= seq}
            sources = list(self._sources)
        for source in sources:
            retained = [occ for occ in source.entries() if occ.seq >= seq]
            source.clear()
            for occ in retained:
                source.record(occ)
        return dropped


class CentralHistory:
    """A deliberately *centralized* history for benchmark E7.

    Every detection-path record goes through one shared lock, modelling
    the bottleneck the paper's distributed design avoids.  Functionally
    equivalent to recording in local histories + merging.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: list[EventOccurrence] = []

    def record(self, occ: EventOccurrence) -> None:
        with self._lock:
            self._entries.append(occ)

    def entries(self) -> list[EventOccurrence]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

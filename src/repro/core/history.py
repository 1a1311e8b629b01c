"""Distributed event histories.

Each ECA-manager "create[s] an event object and keep[s] local histories of
the created event occurrences.  The maintenance of a highly distributed
history eliminates the bottleneck that would result from centrally logging
the occurrence of events.  ...  a global history is maintained by a
background process after a transaction has committed or has been aborted"
(paper, Section 6.3).

:class:`LocalHistory` is the per-manager log and the only store of
occurrences; :class:`GlobalHistory` is a merged view over all of them.
An occurrence joins the view once a merge request for one of its
transactions (or, for transaction-less temporal events, the next
``merge_transactionless``) has been applied, and leaves it when its local
history evicts or prunes it.  Because every occurrence carries a global
sequence number, the view is totally ordered without any central lock on
the detection path — that absence is what benchmark E7 measures.

The merge is lazy: ``merge_transaction``/``merge_transactionless`` are
O(1) enqueue operations; the scan that marks the covered occurrences
merged runs batched at the next *read* (``entries``, ``__len__``,
``iter_transaction``, ``drain``, ``prune_before``).  This is safe
precisely because occurrences carry global sequence numbers: merging late
cannot lose, duplicate, or reorder anything — the merged view is a pure
function of which occurrences exist, not of when the merge ran (see
DESIGN.md).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterator, Optional

from repro.core.events import EventOccurrence
from repro.obs.metrics import NULL_METRICS, MetricsRegistry


class LocalHistory:
    """Per-ECA-manager append log of event occurrences.

    ``capacity`` keeps exactly the newest ``capacity`` occurrences
    (``None``: unbounded).  Thread safety is one lock: ``record``,
    ``entries`` and ``drop_before`` each hold it for their whole step,
    so an occurrence recorded while another thread prunes is neither
    lost nor counted twice.  The lock is per manager; the detection path
    never touches a lock shared between managers.
    """

    def __init__(self, name: str, capacity: Optional[int] = None):
        self.name = name
        self.capacity = capacity
        #: occurrences ever recorded, evicted and pruned ones included.
        self.recorded = 0
        self._lock = threading.Lock()
        self._entries: deque[EventOccurrence] = deque(maxlen=capacity)

    def record(self, occ: EventOccurrence) -> None:
        with self._lock:
            self._entries.append(occ)
            self.recorded += 1

    def entries(self) -> list[EventOccurrence]:
        with self._lock:
            return list(self._entries)

    def drop_before(self, seq: int) -> list[EventOccurrence]:
        """Remove the occurrences with ``occ.seq < seq``; returns them."""
        with self._lock:
            dropped = [occ for occ in self._entries if occ.seq < seq]
            kept = [occ for occ in self._entries if occ.seq >= seq]
            self._entries.clear()
            self._entries.extend(kept)
            return dropped

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class GlobalHistory:
    """The merged, totally ordered view of all managers' histories.

    ``merge_transaction(tx_id)`` asks for every occurrence that
    originated (at least partly) in the finished transaction;
    ``merge_transactionless()`` for temporal/no-transaction occurrences.
    Both merely enqueue the request (O(1) under a short lock).  The next
    read, or an explicit :meth:`drain`, applies the pending requests by
    setting ``merged`` on the retained occurrences they cover — only
    the drain sets it, and each occurrence lives in exactly one local
    history.  ``merge_lag`` exposes how many requests are pending.
    """

    def __init__(self, metrics: MetricsRegistry = NULL_METRICS) -> None:
        # Guards the source list and serializes marking passes, so two
        # racing drains split the work instead of both counting it.
        self._lock = threading.Lock()
        self._sources: list[LocalHistory] = []
        self.merge_operations = 0
        self.deferred_requests = 0
        #: occurrences ever marked merged (pruned/evicted ones included).
        self.merged_entries = 0
        # Pending merge requests; tiny critical section (commit path).
        self._pending_lock = threading.Lock()
        self._pending_txs: set[int] = set()
        self._pending_txless = False
        metrics.counter_fn("history.merges", lambda: self.merge_operations)
        metrics.counter_fn("history.merged_entries",
                           lambda: self.merged_entries)
        metrics.counter_fn("history.merges_deferred",
                           lambda: self.deferred_requests)

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

    def merge_transactionless(self) -> None:
        """Request the merge of occurrences that originated in no
        transaction; applied at the next read or drain."""
        with self._pending_lock:
            self._pending_txless = True
            self.deferred_requests += 1

    def merge_all(self) -> int:
        """Merge everything (maintenance / shutdown)."""
        with self._pending_lock:
            self._pending_txs.clear()
            self._pending_txless = False
        return self._mark(lambda occ: True)

    @property
    def merge_lag(self) -> int:
        """Merge requests not yet applied."""
        with self._pending_lock:
            return len(self._pending_txs) + (1 if self._pending_txless
                                             else 0)

    def drain(self) -> int:
        """Apply all pending merge requests in one batched scan.

        Readers call this implicitly; it is also the hook a background
        maintenance thread would use.  Returns occurrences newly merged.
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

        return self._mark(wanted)

    def _mark(self, wanted: Callable[[EventOccurrence], bool]) -> int:
        with self._lock:
            added = 0
            for source in self._sources:
                for occ in source.entries():
                    if not occ.merged and wanted(occ):
                        occ.merged = True
                        added += 1
            self.merge_operations += 1
            self.merged_entries += added
        return added

    # ------------------------------------------------------------------

    def entries(self) -> list[EventOccurrence]:
        self.drain()
        with self._lock:
            sources = list(self._sources)
        merged = [occ for source in sources for occ in source.entries()
                  if occ.merged]
        merged.sort(key=lambda occ: occ.seq)
        return merged

    def __len__(self) -> int:
        return len(self.entries())

    def iter_transaction(self, tx_id: int) -> Iterator[EventOccurrence]:
        """Occurrences of one transaction, in global order — the view a
        compensation step would need (the 'price' of distribution the
        paper accepts)."""
        for occ in self.entries():
            if tx_id in occ.tx_ids:
                yield occ

    def stats(self) -> dict:
        """Merge-machinery counters for
        ``db.statistics()["concurrency"]["history"]``."""
        return {
            "merge_operations": self.merge_operations,
            "deferred_requests": self.deferred_requests,
            "merge_lag": self.merge_lag,
            "merged_entries": self.merged_entries,
        }

    def prune_before(self, seq: int) -> int:
        """Drop every occurrence with ``occ.seq < seq`` from the attached
        local histories, so long-running systems can bound history
        growth once compensation can no longer need the old entries.
        Returns the number of merged occurrences dropped.
        """
        self.drain()
        with self._lock:
            return sum(occ.merged for source in self._sources
                       for occ in source.drop_before(seq))


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

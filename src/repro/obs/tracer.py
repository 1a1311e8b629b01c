"""Pipeline tracing: span trees across detection, composition and firing.

A *trace* follows one detected event through the whole active pipeline:
the sentry detection span is the root, and everything the occurrence
causes — ECA-manager handling, composer feeds, rule firings in all six
coupling modes, and the commits/aborts of the transactions those firings
run in — attaches underneath it, even when composition or detached
execution hops to a worker thread.

Two parenting mechanisms cooperate:

* a **thread-local span stack**: a span opened while another span is
  active on the same thread becomes its child (this covers the
  synchronous go-ahead path: detect -> ECA -> immediate firing ->
  subtransaction commit);
* an **explicit trace context carried on the occurrence**: every
  :class:`~repro.core.events.EventOccurrence` records the trace id and
  span id that produced it, so a composer worker or detached-rule thread
  can attach its spans to the originating trace with no shared stack
  (this covers deferred drains at EOT and both detached variants).

A third mechanism crosses *process* boundaries: a :class:`TraceContext`
(trace id, parent span id, sampling decision) minted by a wire client
travels in the reserved ``trace`` field of the request frame and is
adopted by the server as the explicit context of the request span, so
the whole server-side cascade — detection, cross-shard composition,
detached execution, WAL commit wait — lands in the client's trace.

One engine has one tracer: the kernels of a
:class:`~repro.core.sharding.ShardedEngine` share their coordinator's,
so a cascade that crosses shards stays on one thread-local span stack
and lands in one tree.  Trace ids and span ids are drawn from
process-global counters, so engines in one process never collide.
Clients mint ids via :func:`mint_trace_id` from a randomized high base
so they cannot collide with server-born ids.

Like the metrics registry, a disabled tracer costs one method call
returning a shared null context manager — no allocation, no clock read.
A ``sample_rate`` below 1.0 gates *root* creation: an unsampled request
starts no trace, and because every downstream span attaches only to an
existing parent (stack or occurrence context), the entire cascade stays
span-free — the near-zero "unsampled" path the CI budget asserts.
"""

from __future__ import annotations

import itertools
import os
import threading
from time import perf_counter
from typing import Any, Iterator, Optional

# Process-global id streams shared by every tracer: ids stay unique
# across the engines of one process.
_TRACE_IDS = itertools.count(1)
_SPAN_IDS = itertools.count(1)

# Client-minted ids start from a random 48-bit base per process: a
# ReachClient in another process must not collide with server-born ids
# (small integers) or with another client's stream.
_MINT_IDS = itertools.count(
    (int.from_bytes(os.urandom(6), "big") | (1 << 47)) << 16)


def mint_trace_id() -> int:
    """A process-unique, cross-process-collision-safe trace id."""
    return next(_MINT_IDS)


class TraceContext:
    """Propagated trace context: what crosses the wire.

    ``span_id`` is the parent span the receiver should attach under
    (None when the sender has no open span — the adopted span becomes
    the trace root).  ``sampled=False`` asks the receiver not to record
    (senders normally just omit the context instead).
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: int, span_id: Optional[int] = None,
                 sampled: bool = True):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def to_wire(self) -> dict[str, Any]:
        """The reserved ``trace`` frame field (see repro.server.protocol)."""
        wire: dict[str, Any] = {"id": self.trace_id}
        if self.span_id is not None:
            wire["span"] = self.span_id
        if not self.sampled:
            wire["sampled"] = False
        return wire

    @classmethod
    def from_wire(cls, value: Any) -> Optional["TraceContext"]:
        """Decode a frame field; None for anything malformed.

        Tolerant by design: frames from older clients carry no context,
        and a garbage field must never fail the request it rides on.
        """
        if not isinstance(value, dict):
            return None
        trace_id = value.get("id")
        if not isinstance(trace_id, int) or isinstance(trace_id, bool) \
                or trace_id <= 0:
            return None
        span_id = value.get("span")
        if not isinstance(span_id, int) or isinstance(span_id, bool) \
                or span_id <= 0:
            span_id = None
        sampled = value.get("sampled", True)
        if not isinstance(sampled, bool):
            sampled = True
        return cls(trace_id, span_id, sampled)

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, TraceContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id
                and self.sampled == other.sampled)

    def __repr__(self) -> str:
        return (f"<TraceContext trace={self.trace_id} "
                f"span={self.span_id} sampled={self.sampled}>")


class Span:
    """One timed phase of the pipeline.

    ``kind`` classifies the phase (``sentry``, ``eca``, ``composer``,
    ``scheduler``, ``tx``); ``name`` identifies the concrete operation
    (``detect:after River.update_water_level()``, ``fire:WaterLevel``).

    A plain ``__slots__`` class rather than a dataclass, and its own
    context manager (``with tracer.span(...) as span`` enters the span
    itself): several spans are created per detected event, so both
    construction cost and per-span allocations are part of the
    enabled-tracing overhead budget.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "kind",
                 "start", "end", "attributes", "_stack", "_sink")

    def __init__(self, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, kind: str,
                 start: float, end: float = 0.0,
                 attributes: Optional[dict[str, Any]] = None,
                 stack: Optional[list["Span"]] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end = end
        self.attributes = {} if attributes is None else attributes
        #: the creating thread's span stack (span creation and the
        #: ``with`` block always run on the same thread).
        self._stack = stack
        #: export hook invoked with the finished span (set by the tracer
        #: when a telemetry pipeline is attached; None otherwise).
        self._sink = None

    def __enter__(self) -> "Span":
        self._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb, _pc=perf_counter) -> None:
        self.end = _pc()
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            stack.remove(self)
        if exc is not None:
            self.attributes.setdefault("error", repr(exc))
        sink = self._sink
        if sink is not None:
            sink(self)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return self.end - self.start if self.end else 0.0

    @property
    def finished(self) -> bool:
        return self.end != 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return (f"<Span {self.name!r} kind={self.kind} "
                f"trace={self.trace_id} id={self.span_id} "
                f"parent={self.parent_id} {self.duration * 1e6:.1f}us>")


class Trace:
    """The assembled span tree of one trace id."""

    def __init__(self, trace_id: int, spans: list[Span]):
        self.trace_id = trace_id
        #: spans in creation order (parents precede their children).
        self.spans = list(spans)

    @property
    def root(self) -> Optional[Span]:
        for span in self.spans:
            if span.parent_id is None:
                return span
        return self.spans[0] if self.spans else None

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, kind: Optional[str] = None,
             name: Optional[str] = None) -> list[Span]:
        """Spans matching ``kind`` and/or a ``name`` prefix."""
        out = []
        for span in self.spans:
            if kind is not None and span.kind != kind:
                continue
            if name is not None and not span.name.startswith(name):
                continue
            out.append(span)
        return out

    def path_to_root(self, span: Span) -> list[Span]:
        """``span`` and its ancestors, leaf first, root last."""
        by_id = {s.span_id: s for s in self.spans}
        path = [span]
        while path[-1].parent_id is not None:
            parent = by_id.get(path[-1].parent_id)
            if parent is None:
                break
            path.append(parent)
        return path

    def walk(self) -> Iterator[tuple[int, Span]]:
        """Depth-first (depth, span) pairs from the root down."""
        def descend(span: Span, depth: int) -> Iterator[tuple[int, Span]]:
            yield depth, span
            for child in self.children_of(span):
                yield from descend(child, depth + 1)

        root = self.root
        if root is not None:
            yield from descend(root, 0)

    def format(self) -> str:
        """Indented text dump of the span tree (the docs' sample trace)."""
        lines = [f"trace {self.trace_id} ({len(self.spans)} spans)"]
        for depth, span in self.walk():
            attrs = " ".join(f"{k}={v}" for k, v in span.attributes.items())
            lines.append(f"{'  ' * (depth + 1)}[{span.kind}] {span.name} "
                         f"{span.duration * 1e6:.1f}us"
                         + (f" {attrs}" if attrs else ""))
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {"trace_id": self.trace_id,
                "spans": [span.to_dict() for span in self.spans]}

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"<Trace {self.trace_id} spans={len(self.spans)}>"


class _NullSpanContext:
    """Shared no-op context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Creates spans and retains the most recent traces for querying.

    ``capacity`` bounds retention: once exceeded, whole traces are
    evicted oldest-first, so memory use is stable under sustained load.
    """

    def __init__(self, enabled: bool = True, capacity: int = 256,
                 sample_rate: float = 1.0):
        self.enabled = enabled
        self.capacity = capacity
        #: fraction of would-be trace roots actually recorded (see
        #: ``ExecutionConfig(trace_sampling=...)``).  Gates only *root*
        #: creation: spans with an explicit context or an active parent
        #: always attach, so an adopted wire context is never dropped
        #: mid-trace.
        self.sample_rate = sample_rate
        self._sample_acc = 0.0
        # Bound methods of the process-global id counters: span creation
        # is the hot path, and ``next(x)`` costs a global lookup per span.
        self._next_trace_id = _TRACE_IDS.__next__
        self._next_span_id = _SPAN_IDS.__next__
        # Insertion-ordered (plain dicts are, since 3.7) so eviction can
        # drop the oldest trace; a plain dict keeps get/insert cheap.
        self._traces: dict[int, list[Span]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        #: traces ever recorded by this tracer (drop accounting:
        #: ``evicted + len(tracer)`` equals ``born``).
        self.born = 0
        #: whole traces dropped by capacity eviction.
        self.evicted = 0
        #: per-finished-span export hook (see :meth:`set_sink`).
        self._sink = None

    def set_sink(self, sink) -> None:
        """Attach (or detach, with ``None``) the telemetry export hook.

        The sink is called with every span that finishes *after* this
        call — spans already open keep the sink they were created with.
        Only the telemetry pipeline should call this.
        """
        self._sink = sink

    # -- span creation --------------------------------------------------------

    def span(self, name: str, kind: str,
             trace_id: Optional[int] = None,
             parent_id: Optional[int] = None,
             **attributes: Any):
        """Open a span: ``with tracer.span("fire:R", "scheduler") as s:``.

        Parent resolution order: explicit ``trace_id``/``parent_id`` (the
        occurrence-carried context), else the calling thread's current
        span, else a brand-new trace rooted at this span.  Returns the
        shared null context when tracing is disabled, in which case the
        ``as`` target is ``None``.
        """
        if not self.enabled:
            return _NULL_SPAN
        stack = self._stack()
        if trace_id is None:
            if stack:
                current = stack[-1]
                trace_id = current.trace_id
                parent_id = current.span_id
            else:
                # A brand-new root: the only place sampling applies.
                # The accumulator is racy under threads — statistics,
                # not ledgers, like the rest of the obs substrate.
                if self.sample_rate < 1.0:
                    acc = self._sample_acc + self.sample_rate
                    if acc < 1.0:
                        self._sample_acc = acc
                        return _NULL_SPAN
                    self._sample_acc = acc - 1.0
                trace_id = self._next_trace_id()
        # Construct without __init__ — spans are the hot-path allocation
        # (several per detected event) and the extra frame shows up in
        # the enabled-overhead budget.
        span = Span.__new__(Span)
        span.trace_id = trace_id
        span.span_id = self._next_span_id()
        span.parent_id = parent_id
        span.name = name
        span.kind = kind
        span.start = perf_counter()
        span.end = 0.0
        span.attributes = attributes
        span._stack = stack
        span._sink = self._sink
        # Appending to an existing trace's span list is safe without the
        # lock under the GIL; only trace creation/eviction takes it.
        spans = self._traces.get(trace_id)
        if spans is not None:
            spans.append(span)
        else:
            self._record_new(span)
        return span

    def child_span(self, name: str, kind: str, **attributes: Any):
        """A span only if a parent is already active on this thread.

        Used by layers that should never *start* a trace on their own
        (e.g. transaction commit): when nothing upstream is being traced,
        this is a no-op.
        """
        if not self.enabled:
            return _NULL_SPAN
        stack = self._stack()
        if not stack:
            return _NULL_SPAN
        current = stack[-1]
        span = Span.__new__(Span)
        span.trace_id = current.trace_id
        span.span_id = self._next_span_id()
        span.parent_id = current.span_id
        span.name = name
        span.kind = kind
        span.start = perf_counter()
        span.end = 0.0
        span.attributes = attributes
        span._stack = stack
        span._sink = self._sink
        spans = self._traces.get(current.trace_id)
        if spans is not None:
            spans.append(span)
        else:
            self._record_new(span)
        return span

    # -- thread-local current-span stack --------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def active(self) -> bool:
        """Would a context-free span opened now on this thread record?

        False exactly when :meth:`span` called without an explicit
        ``trace_id`` is guaranteed to return the null context: roots are
        fully suppressed (``sample_rate == 0.0``) and no parent span is
        open on this thread.  Hot call sites check this before packing
        span attributes, so the unsampled path skips the attribute dict
        and the span-machinery call entirely — the bulk of the "near
        zero when unsampled" budget.  With any positive sample rate it
        returns True and the accumulator in :meth:`span` decides.
        """
        if not self.enabled:
            return False
        if self.sample_rate > 0.0:
            return True
        try:
            stack = self._local.stack
        except AttributeError:
            return False
        return bool(stack)

    # -- retention and querying ------------------------------------------------

    def _record_new(self, span: Span) -> None:
        # Insertion is GIL-atomic; the lock is only needed for eviction,
        # which runs in batches (once the table holds twice the retention
        # target) so sustained detection pays an amortized O(1) cost.
        # Readers trim down to ``capacity`` exactly (see _evict_to).
        traces = self._traces
        spans = traces.get(span.trace_id)
        if spans is None:
            traces[span.trace_id] = [span]
            self.born += 1
        else:
            spans.append(span)
        if len(traces) >= self.capacity * 2:
            self._evict_to(self.capacity)

    def _evict_to(self, keep: int) -> None:
        with self._lock:
            traces = self._traces
            try:
                while len(traces) > keep:
                    del traces[next(iter(traces))]
                    self.evicted += 1
            except (KeyError, StopIteration, RuntimeError):
                pass  # concurrent insert/evict race: statistics, not ledgers

    def trace(self, trace_id: Optional[int] = None) -> Optional[Trace]:
        """The trace with ``trace_id``, or the most recent one."""
        self._evict_to(self.capacity)
        with self._lock:
            if trace_id is None:
                if not self._traces:
                    return None
                trace_id = next(reversed(self._traces))
            spans = self._traces.get(trace_id)
            if spans is None:
                return None
            return Trace(trace_id, list(spans))

    def traces(self) -> list[Trace]:
        """Every retained trace (at most ``capacity``), oldest first."""
        self._evict_to(self.capacity)
        with self._lock:
            return [Trace(tid, list(spans))
                    for tid, spans in self._traces.items()]

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        self._evict_to(self.capacity)
        with self._lock:
            return len(self._traces)


#: Tracer used by components not wired to a database (always disabled).
NULL_TRACER = Tracer(enabled=False)

"""Event composers: many small composition graphs, not one monolith.

The paper's design (Section 6.3): "large, monolithic event managers that
are based on a single graph should be avoided.  Instead, many small
compositors that can be executed by parallel threads should be supported.
This approach makes the garbage-collection of semi-composed events much
simpler."

Accordingly, each composite event expression owns one :class:`Composer`.
A composer maintains one *composition graph instance* per **group**:

* single-transaction composites group by the originating top-level
  transaction — at that transaction's end the whole graph instance is
  simply removed (Section 3.3's lifespan rule);
* multi-transaction composites use one global graph whose buffered
  occurrences expire after the expression's validity interval, swept by
  :meth:`Composer.gc`.  Only this graph can outlive a transaction, so
  only it is checkpointed into the WAL (:meth:`Composer.snapshot_state`).

Within a graph, each algebra operator is a small node holding
policy-governed buffers (:class:`~repro.core.consumption.OccurrenceBuffer`);
sequence nodes additionally enforce the strictly-before constraint via the
global occurrence sequence numbers of the primitive components.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable, Optional

from repro.core.algebra import (
    Closure,
    CompositeEventSpec,
    Conjunction,
    Disjunction,
    EventScope,
    History,
    Negation,
    Sequence,
)
from repro.core.consumption import OccurrenceBuffer
from repro.core.events import (
    EventOccurrence,
    EventSpec,
    PrimitiveEventSpec,
    advance_occurrence_seq,
)
from repro.errors import ComposerStateError, EventDefinitionError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import _NULL_SPAN, NULL_TRACER, Tracer

_GLOBAL_GROUP: Hashable = "*"

#: Version stamp of the durable composer-checkpoint payload.  Bumped when
#: the snapshot structure changes; recovery rejects unknown versions and
#: falls back to an older consistent checkpoint.
COMPOSER_STATE_VERSION = 1


class _SnapshotCodec:
    """Encode/decode :class:`EventOccurrence` trees for a WAL checkpoint.

    The storage serializer handles only plain values (no frozensets, no
    enums, no arbitrary objects), so occurrences become nested dicts keyed
    by their spec keys — which are already serializer-friendly nested
    tuples — and specs are resolved back through an index built from the
    composer's own expression tree.  Rule-condition parameters that the
    serializer cannot represent (live object references, closures) are
    dropped and counted rather than failing the checkpoint: losing a
    binding is recoverable noise, losing the half-match is not.
    """

    def __init__(self, spec: EventSpec):
        self.spec_index: dict[Hashable, EventSpec] = {}
        self._index(spec)
        self.max_seq = 0
        self.dropped_parameters = 0
        #: every transaction id seen while decoding — pre-crash
        #: transactions the recovering engine must treat as decided.
        self.tx_ids: set[int] = set()

    def _index(self, spec: EventSpec) -> None:
        self.spec_index[spec.key()] = spec
        if isinstance(spec, CompositeEventSpec):
            for child in spec.children():
                self._index(child)
        else:
            for leaf in spec.leaves():
                self.spec_index[leaf.key()] = leaf

    def _safe_parameters(self, parameters: dict) -> dict:
        from repro.storage.serializer import serialize
        kept: dict = {}
        for key, value in parameters.items():
            try:
                serialize(key)
                serialize(value)
            except Exception:
                self.dropped_parameters += 1
                continue
            kept[key] = value
        return kept

    def encode(self, occ: EventOccurrence) -> dict:
        self.max_seq = max(self.max_seq, occ.seq)
        return {
            "k": occ.spec_key,
            "t": occ.timestamp,
            "x": sorted(occ.tx_ids),
            "q": occ.seq,
            "p": self._safe_parameters(occ.parameters),
            "c": [self.encode(c) for c in occ.components],
        }

    def decode(self, data: dict) -> EventOccurrence:
        try:
            spec = self.spec_index.get(data["k"])
            if spec is None:
                raise ComposerStateError(
                    f"checkpoint references unknown spec key {data['k']!r}")
            occ = EventOccurrence(
                spec=spec, category=spec.category(),
                timestamp=data["t"],
                tx_ids=frozenset(data["x"]),
                parameters=dict(data["p"]),
                components=tuple(self.decode(c) for c in data["c"]),
                seq=data["q"], spec_key=data["k"])
        except ComposerStateError:
            raise
        except Exception as exc:
            raise ComposerStateError(
                f"malformed occurrence in checkpoint: {exc}") from exc
        self.max_seq = max(self.max_seq, occ.seq)
        self.tx_ids.update(occ.tx_ids)
        return occ


def _min_seq(occ: EventOccurrence) -> int:
    return min(c.seq for c in occ.all_primitive_components())


def _max_seq(occ: EventOccurrence) -> int:
    return max(c.seq for c in occ.all_primitive_components())


def _combine(node: "_Node",
             components: list[EventOccurrence]) -> EventOccurrence:
    """Build ``node``'s composite occurrence from its components."""
    parameters: dict = {}
    for component in components:
        parameters.update(component.parameters)
    tx_ids: frozenset[int] = frozenset().union(
        *[c.tx_ids for c in components])
    timestamp = max(c.timestamp for c in components)
    return EventOccurrence(
        node.spec, node.category, timestamp, tx_ids, parameters,
        tuple(components), spec_key=node.key)


class _Node:
    """One operator in a composition graph instance."""

    def feed(self, occ: EventOccurrence) -> list[EventOccurrence]:
        raise NotImplementedError

    def pending(self) -> int:
        """Number of buffered semi-composed occurrences in this subtree."""
        raise NotImplementedError

    def discard_older_than(self, cutoff: float) -> int:
        raise NotImplementedError

    def snapshot(self, codec: _SnapshotCodec) -> Optional[dict]:
        """Mutable state of this subtree, encoded for a WAL checkpoint."""
        raise NotImplementedError

    def restore(self, state: Optional[dict], codec: _SnapshotCodec) -> None:
        """Rebuild this subtree's mutable state from :meth:`snapshot`."""
        raise NotImplementedError


class _PrimitiveNode(_Node):
    __slots__ = ("key",)

    def __init__(self, spec: PrimitiveEventSpec):
        self.key = spec.key()

    def feed(self, occ: EventOccurrence) -> list[EventOccurrence]:
        return [occ] if occ.spec_key == self.key else []

    def pending(self) -> int:
        return 0

    def discard_older_than(self, cutoff: float) -> int:
        return 0

    def snapshot(self, codec: _SnapshotCodec) -> Optional[dict]:
        return None

    def restore(self, state: Optional[dict], codec: _SnapshotCodec) -> None:
        return None


class _SequenceNode(_Node):
    def __init__(self, spec: Sequence, left: _Node, right: _Node):
        self.spec = spec
        self.key = spec.key()
        self.category = spec.category()
        self.left = left
        self.right = right
        self.buffer = OccurrenceBuffer(spec.consumption)

    def feed(self, occ: EventOccurrence) -> list[EventOccurrence]:
        emissions: list[EventOccurrence] = []
        for left_emission in self.left.feed(occ):
            self.buffer.insert(left_emission)
        for right_emission in self.right.feed(occ):
            start = _min_seq(right_emission)
            groups = self.buffer.select(
                eligible=lambda item, __start=start:
                    _max_seq(item) < __start)
            for group in groups:
                emissions.append(_combine(self, group + [right_emission]))
        return emissions

    def pending(self) -> int:
        return len(self.buffer) + self.left.pending() + self.right.pending()

    def discard_older_than(self, cutoff: float) -> int:
        return (self.buffer.discard_older_than(cutoff)
                + self.left.discard_older_than(cutoff)
                + self.right.discard_older_than(cutoff))

    def snapshot(self, codec: _SnapshotCodec) -> Optional[dict]:
        return {"buf": [codec.encode(o) for o in self.buffer.snapshot()],
                "left": self.left.snapshot(codec),
                "right": self.right.snapshot(codec)}

    def restore(self, state: Optional[dict], codec: _SnapshotCodec) -> None:
        self.buffer.restore([codec.decode(o) for o in state["buf"]])
        self.left.restore(state["left"], codec)
        self.right.restore(state["right"], codec)


class _ConjunctionNode(_Node):
    def __init__(self, spec: Conjunction, left: _Node, right: _Node):
        self.spec = spec
        self.key = spec.key()
        self.category = spec.category()
        self.left = left
        self.right = right
        self.left_buffer = OccurrenceBuffer(spec.consumption)
        self.right_buffer = OccurrenceBuffer(spec.consumption)

    @staticmethod
    def _disjoint_from(emission: EventOccurrence):
        """Eligibility: no primitive occurrence may join a composite twice
        (relevant when both operands match the same event type)."""
        seqs = {c.seq for c in emission.all_primitive_components()}
        return lambda item: seqs.isdisjoint(
            c.seq for c in item.all_primitive_components())

    def feed(self, occ: EventOccurrence) -> list[EventOccurrence]:
        emissions: list[EventOccurrence] = []
        left_emissions = self.left.feed(occ)
        right_emissions = self.right.feed(occ)
        for emission in left_emissions:
            groups = self.right_buffer.select(
                eligible=self._disjoint_from(emission))
            if groups:
                for group in groups:
                    emissions.append(_combine(self, group + [emission]))
            else:
                self.left_buffer.insert(emission)
        for emission in right_emissions:
            groups = self.left_buffer.select(
                eligible=self._disjoint_from(emission))
            if groups:
                for group in groups:
                    emissions.append(_combine(self, group + [emission]))
            else:
                self.right_buffer.insert(emission)
        return emissions

    def pending(self) -> int:
        return (len(self.left_buffer) + len(self.right_buffer)
                + self.left.pending() + self.right.pending())

    def discard_older_than(self, cutoff: float) -> int:
        return (self.left_buffer.discard_older_than(cutoff)
                + self.right_buffer.discard_older_than(cutoff)
                + self.left.discard_older_than(cutoff)
                + self.right.discard_older_than(cutoff))

    def snapshot(self, codec: _SnapshotCodec) -> Optional[dict]:
        return {
            "lbuf": [codec.encode(o) for o in self.left_buffer.snapshot()],
            "rbuf": [codec.encode(o) for o in self.right_buffer.snapshot()],
            "left": self.left.snapshot(codec),
            "right": self.right.snapshot(codec)}

    def restore(self, state: Optional[dict], codec: _SnapshotCodec) -> None:
        self.left_buffer.restore([codec.decode(o) for o in state["lbuf"]])
        self.right_buffer.restore([codec.decode(o) for o in state["rbuf"]])
        self.left.restore(state["left"], codec)
        self.right.restore(state["right"], codec)


class _DisjunctionNode(_Node):
    def __init__(self, spec: Disjunction, left: _Node, right: _Node):
        self.spec = spec
        self.key = spec.key()
        self.category = spec.category()
        self.left = left
        self.right = right

    def feed(self, occ: EventOccurrence) -> list[EventOccurrence]:
        emissions: list[EventOccurrence] = []
        for emission in self.left.feed(occ) + self.right.feed(occ):
            emissions.append(_combine(self, [emission]))
        return emissions

    def pending(self) -> int:
        return self.left.pending() + self.right.pending()

    def discard_older_than(self, cutoff: float) -> int:
        return (self.left.discard_older_than(cutoff)
                + self.right.discard_older_than(cutoff))

    def snapshot(self, codec: _SnapshotCodec) -> Optional[dict]:
        return {"left": self.left.snapshot(codec),
                "right": self.right.snapshot(codec)}

    def restore(self, state: Optional[dict], codec: _SnapshotCodec) -> None:
        self.left.restore(state["left"], codec)
        self.right.restore(state["right"], codec)


class _NegationNode(_Node):
    """Non-occurrence of subject between start and end.

    Per feed call, emissions are processed subject-first, then end, then
    start: a subject coincident with the end still vetoes; an end coincident
    with a start closes the previous window before the new one opens.
    """

    def __init__(self, spec: Negation, subject: _Node, start: _Node,
                 end: _Node):
        self.spec = spec
        self.key = spec.key()
        self.category = spec.category()
        self.subject = subject
        self.start = start
        self.end = end
        self.window_start: Optional[EventOccurrence] = None
        self.subject_seen = False

    def feed(self, occ: EventOccurrence) -> list[EventOccurrence]:
        emissions: list[EventOccurrence] = []
        if self.window_start is not None and self.subject.feed(occ):
            self.subject_seen = True
        for end_emission in self.end.feed(occ):
            if self.window_start is not None and not self.subject_seen:
                emissions.append(
                    _combine(self, [self.window_start, end_emission]))
            self.window_start = None
            self.subject_seen = False
        for start_emission in self.start.feed(occ):
            self.window_start = start_emission
            self.subject_seen = False
        return emissions

    def pending(self) -> int:
        inner = (self.subject.pending() + self.start.pending()
                 + self.end.pending())
        return inner + (1 if self.window_start is not None else 0)

    def discard_older_than(self, cutoff: float) -> int:
        removed = (self.subject.discard_older_than(cutoff)
                   + self.start.discard_older_than(cutoff)
                   + self.end.discard_older_than(cutoff))
        if self.window_start is not None and \
                self.window_start.timestamp < cutoff:
            self.window_start = None
            self.subject_seen = False
            removed += 1
        return removed

    def snapshot(self, codec: _SnapshotCodec) -> Optional[dict]:
        window = (codec.encode(self.window_start)
                  if self.window_start is not None else None)
        return {"window": window, "seen": self.subject_seen,
                "subject": self.subject.snapshot(codec),
                "start": self.start.snapshot(codec),
                "end": self.end.snapshot(codec)}

    def restore(self, state: Optional[dict], codec: _SnapshotCodec) -> None:
        window = state["window"]
        self.window_start = (codec.decode(window)
                             if window is not None else None)
        self.subject_seen = bool(state["seen"])
        self.subject.restore(state["subject"], codec)
        self.start.restore(state["start"], codec)
        self.end.restore(state["end"], codec)


class _ClosureNode(_Node):
    """Accumulate occurrences of ``of`` and signal once at ``until``."""

    def __init__(self, spec: Closure, of: _Node, until: _Node):
        self.spec = spec
        self.key = spec.key()
        self.category = spec.category()
        self.of = of
        self.until = until
        self.accumulated: list[EventOccurrence] = []

    def feed(self, occ: EventOccurrence) -> list[EventOccurrence]:
        emissions: list[EventOccurrence] = []
        self.accumulated.extend(self.of.feed(occ))
        for until_emission in self.until.feed(occ):
            if self.accumulated:
                emissions.append(
                    _combine(self, self.accumulated + [until_emission]))
                self.accumulated = []
        return emissions

    def pending(self) -> int:
        return (len(self.accumulated) + self.of.pending()
                + self.until.pending())

    def discard_older_than(self, cutoff: float) -> int:
        before = len(self.accumulated)
        self.accumulated = [occ for occ in self.accumulated
                            if occ.timestamp >= cutoff]
        return (before - len(self.accumulated)
                + self.of.discard_older_than(cutoff)
                + self.until.discard_older_than(cutoff))

    def snapshot(self, codec: _SnapshotCodec) -> Optional[dict]:
        return {"acc": [codec.encode(o) for o in self.accumulated],
                "of": self.of.snapshot(codec),
                "until": self.until.snapshot(codec)}

    def restore(self, state: Optional[dict], codec: _SnapshotCodec) -> None:
        self.accumulated = [codec.decode(o) for o in state["acc"]]
        self.of.restore(state["of"], codec)
        self.until.restore(state["until"], codec)


class _HistoryNode(_Node):
    """``count`` occurrences of ``of`` within a sliding ``window``."""

    def __init__(self, spec: History, of: _Node):
        self.spec = spec
        self.key = spec.key()
        self.category = spec.category()
        self.of = of
        self.recent: list[EventOccurrence] = []

    def feed(self, occ: EventOccurrence) -> list[EventOccurrence]:
        emissions: list[EventOccurrence] = []
        for emission in self.of.feed(occ):
            self.recent.append(emission)
            cutoff = emission.timestamp - self.spec.window
            self.recent = [e for e in self.recent if e.timestamp >= cutoff]
            if len(self.recent) >= self.spec.count:
                used = self.recent[-self.spec.count:]
                emissions.append(_combine(self, used))
                if not self.spec.consumption.reuses_initiator:
                    # Consume the participating occurrences; under the
                    # recent policy the window keeps sliding instead.
                    self.recent = self.recent[:-self.spec.count]
        return emissions

    def pending(self) -> int:
        return len(self.recent) + self.of.pending()

    def discard_older_than(self, cutoff: float) -> int:
        before = len(self.recent)
        self.recent = [e for e in self.recent if e.timestamp >= cutoff]
        return (before - len(self.recent)
                + self.of.discard_older_than(cutoff))

    def snapshot(self, codec: _SnapshotCodec) -> Optional[dict]:
        return {"recent": [codec.encode(o) for o in self.recent],
                "of": self.of.snapshot(codec)}

    def restore(self, state: Optional[dict], codec: _SnapshotCodec) -> None:
        self.recent = [codec.decode(o) for o in state["recent"]]
        self.of.restore(state["of"], codec)


def _build(spec: EventSpec) -> _Node:
    if isinstance(spec, PrimitiveEventSpec):
        return _PrimitiveNode(spec)
    if isinstance(spec, Sequence):
        return _SequenceNode(spec, _build(spec.first), _build(spec.second))
    if isinstance(spec, Conjunction):
        return _ConjunctionNode(spec, _build(spec.left), _build(spec.right))
    if isinstance(spec, Disjunction):
        return _DisjunctionNode(spec, _build(spec.left), _build(spec.right))
    if isinstance(spec, Negation):
        return _NegationNode(spec, _build(spec.subject), _build(spec.start),
                             _build(spec.end))
    if isinstance(spec, Closure):
        return _ClosureNode(spec, _build(spec.of), _build(spec.until))
    if isinstance(spec, History):
        return _HistoryNode(spec, _build(spec.of))
    raise EventDefinitionError(
        f"unknown event spec type {type(spec).__name__!r}")


class Composer:
    """One small compositor for one composite event expression."""

    def __init__(self, spec: CompositeEventSpec, name: str = "",
                 tracer: Tracer = NULL_TRACER,
                 metrics: MetricsRegistry = NULL_METRICS):
        if not isinstance(spec, CompositeEventSpec):
            raise EventDefinitionError(
                "Composer requires a composite event spec")
        spec.validate()
        self.spec = spec
        self.name = name or spec.describe()
        self.scope = spec.resolved_scope()
        self.validity = spec.effective_validity()
        self.category = spec.category()
        self.interested_keys: frozenset[Hashable] = frozenset(
            leaf.key() for leaf in spec.leaves())
        self._graphs: dict[Hashable, _Node] = {}
        self._lock = threading.RLock()
        self.tracer = tracer
        self.emitted = 0
        self.consumed = 0
        self.gc_removed = 0
        self.ignored_no_transaction = 0
        #: set whenever partial-match state may have changed since the
        #: last checkpoint reached the log; a force skips clean composers.
        self.dirty = False
        #: seq watermark of the last restored checkpoint (0 = none):
        #: recovery feeds only the GlobalHistory suffix past this point.
        self.restored_watermark = 0
        #: transaction ids referenced by restored half-matches — the
        #: crashed incarnation's, which the recovering engine must mark
        #: decided or causally-dependent rule work waits forever.
        self.restored_tx_ids: frozenset[int] = frozenset()
        #: count of parameters dropped from checkpoints because the
        #: storage serializer cannot represent them.
        self.checkpoint_dropped_parameters = 0
        self._span_name = f"compose:{self.name}"
        self._m_fed = metrics.counter("composer.fed")

    # ------------------------------------------------------------------

    def _group_of(self, occ: EventOccurrence) -> Optional[Hashable]:
        if self.scope is EventScope.MULTI_TX:
            return _GLOBAL_GROUP
        if len(occ.tx_ids) != 1:
            # An occurrence raised outside any transaction cannot belong
            # to a single-transaction composition (there is no EOT to
            # scope its lifespan to): ignore it.
            self.ignored_no_transaction += 1
            return None
        return next(iter(occ.tx_ids))

    def feed(self, occ: EventOccurrence) -> list[EventOccurrence]:
        """Feed one primitive occurrence; return completed composites.

        Completed composite occurrences inherit the trace context of the
        composition span, so rules fired by the composite chain back to
        the primitive detection that completed it; the span's attributes
        record which primitive occurrences (and traces) contributed.
        """
        if occ.spec_key not in self.interested_keys:
            return []
        self._m_fed.inc()
        tracer = self.tracer
        if not tracer.enabled or \
                (occ.trace_id is None and not tracer.active()):
            span_cm = _NULL_SPAN  # untraced or unsampled: no attributes
        else:
            span_cm = tracer.span(self._span_name, "composer",
                                  trace_id=occ.trace_id,
                                  parent_id=occ.span_id,
                                  seq=occ.seq)
        with span_cm as span:
            with self._lock:
                group = self._group_of(occ)
                if group is None:
                    return []
                graph = self._graphs.get(group)
                if graph is None:
                    graph = _build(self.spec)
                    self._graphs[group] = graph
                emissions = graph.feed(occ)
                self.dirty = True
                self.emitted += len(emissions)
            if emissions:
                components = [c for e in emissions
                              for c in e.all_primitive_components()]
                self.consumed += len(components)
                if span is not None:
                    span.attributes["completed"] = len(emissions)
                    span.attributes["component_seqs"] = sorted(
                        {c.seq for c in components})
                    span.attributes["contributing_traces"] = sorted(
                        {c.trace_id for c in components
                         if c.trace_id is not None})
                    for emission in emissions:
                        emission.trace_id = span.trace_id
                        emission.span_id = span.span_id
            return emissions

    # ------------------------------------------------------------------
    # Lifespan management (Section 3.3)
    # ------------------------------------------------------------------

    def on_transaction_end(self, tx_id: int) -> int:
        """Discard the graph instance of a finished transaction."""
        return self._discard_group(tx_id)

    # Bound only because benchmarks/pipeline/spans.py wraps it by name;
    # ROADMAP item 19 (the benchmark stops patching src/ by name) deletes it.
    on_group_end = on_transaction_end

    def _discard_group(self, group: Hashable) -> int:
        # Most transactions leave no graph; skip the lock for them.  A feed
        # racing this sweep races the locked pop the same way.
        if self.scope is not EventScope.SINGLE_TX or \
                group not in self._graphs:
            return 0
        with self._lock:
            graph = self._graphs.pop(group, None)
            if graph is None:
                return 0
            removed = graph.pending()
            self.gc_removed += removed
            return removed

    def gc(self, now: float) -> int:
        """Expire semi-composed state older than the validity interval."""
        if self.validity is None:
            return 0
        cutoff = now - self.validity
        removed = 0
        with self._lock:
            for graph in self._graphs.values():
                removed += graph.discard_older_than(cutoff)
            if removed:
                self.dirty = True
            self.gc_removed += removed
        return removed

    def pending_count(self) -> int:
        """Total semi-composed occurrences currently alive."""
        with self._lock:
            return sum(graph.pending() for graph in self._graphs.values())

    def graph_instance_count(self) -> int:
        with self._lock:
            return len(self._graphs)

    # ------------------------------------------------------------------
    # Durability: snapshot/restore through the WAL (COMPOSER_CHECKPOINT)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """A versioned, serializer-friendly image of the partial-match
        state that can outlive a transaction: the global multi-TX graph
        with its policy buffers, negation windows, closure accumulators,
        and history windows.  Single-transaction graphs (per tx or per
        sharded group) end with their transaction — a crash ends every
        open one — so they are never encoded and ``groups`` holds at
        most the ``("global",)`` entry."""
        codec = _SnapshotCodec(self.spec)
        with self._lock:
            graph = self._graphs.get(_GLOBAL_GROUP)
            groups = ([] if graph is None
                      else [(("global",), graph.snapshot(codec))])
        self.checkpoint_dropped_parameters += codec.dropped_parameters
        return {
            "v": COMPOSER_STATE_VERSION,
            "key": self.spec.key(),
            "watermark": codec.max_seq,
            "groups": groups,
        }

    def checkpoint(self, append: Callable[[dict], Any]) -> None:
        """Hand a :meth:`snapshot_state` frame to ``append`` and clear the
        dirty flag only once it returns: a failed append leaves the
        composer dirty, so the next force writes the state.  The lock is
        held throughout, so no feed falls between snapshot and flag."""
        with self._lock:
            append(self.snapshot_state())
            self.dirty = False

    def restore_state(self, payload: dict) -> int:
        """Rebuild partial-match state from a :meth:`snapshot_state`
        payload; returns the seq watermark of the restored state.

        Raises :class:`ComposerStateError` on any version, spec-key, or
        structural mismatch — including a group tagged anything but
        ``"global"`` — so recovery can fall back to the previous
        consistent checkpoint.
        """
        try:
            version = payload["v"]
            key = payload["key"]
            groups = payload["groups"]
        except (TypeError, KeyError) as exc:
            raise ComposerStateError(
                f"malformed composer checkpoint: {exc}") from exc
        if version != COMPOSER_STATE_VERSION:
            raise ComposerStateError(
                f"composer checkpoint version {version!r} not supported")
        if key != self.spec.key():
            raise ComposerStateError(
                f"composer checkpoint for {key!r} fed to {self.name!r}")
        codec = _SnapshotCodec(self.spec)
        restored: dict[Hashable, _Node] = {}
        try:
            for group_key, state in groups:
                if tuple(group_key) != ("global",):
                    raise ComposerStateError(
                        f"unknown group key {group_key!r}")
                graph = _build(self.spec)
                graph.restore(state, codec)
                restored[_GLOBAL_GROUP] = graph
        except ComposerStateError:
            raise
        except Exception as exc:
            raise ComposerStateError(
                f"malformed composer checkpoint: {exc}") from exc
        with self._lock:
            self._graphs = restored
            self.dirty = False
            self.restored_watermark = max(self.restored_watermark,
                                          codec.max_seq)
            self.restored_tx_ids = frozenset(codec.tx_ids)
        advance_occurrence_seq(codec.max_seq)
        return codec.max_seq

    def __repr__(self) -> str:
        return (f"<Composer {self.name!r} scope={self.scope.value} "
                f"pending={self.pending_count()}>")

"""Primitive event specifications and event occurrences.

REACH recognizes primitive events of four flavours (paper, Section 3.1):

* **method-invocation events** — before/after an arbitrary method of a
  monitored class (detected by the sentry); explicit user signals are
  modelled as method-invocation events;
* **state-change events** — attribute writes (our virtual-memory-fault
  analog traps ``__setattr__``);
* **flow-control events** — transaction-related: BOT, EOT, Commit, Abort,
  plus DB-internal operations such as persist, fetch and delete;
* **temporal events** — absolute, relative (anchored on another event),
  periodic, and the special *milestone* events used for time-constrained
  processing.

An :class:`EventSpec` is the *specification* (what to watch for); an
:class:`EventOccurrence` is one detected instance, carrying its timestamp,
the originating top-level transaction ids, and parameter bindings.  The
four *categories* of Table 1 (single method, purely temporal, composite
single-transaction, composite multi-transaction) are computed from specs
and attached to occurrences so the coupling-mode rules can be enforced.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.errors import EventDefinitionError
from repro.oodb.sentry import Moment

__all__ = [
    "EventCategory", "EventSpec", "PrimitiveEventSpec", "MethodEventSpec",
    "StateChangeEventSpec", "FlowEventKind", "FlowEventSpec",
    "TemporalEventSpec", "AbsoluteEventSpec", "RelativeEventSpec",
    "PeriodicEventSpec", "MilestoneEventSpec", "SignalEventSpec",
    "EventOccurrence", "EventType", "Moment", "advance_occurrence_seq",
]


class EventCategory(enum.Enum):
    """The four event kinds of Table 1."""

    SINGLE_METHOD = "single method"
    PURELY_TEMPORAL = "purely temporal"
    COMPOSITE_SINGLE_TX = "composite 1 TX"
    COMPOSITE_MULTI_TX = "composite n TXs"

    @property
    def is_composite(self) -> bool:
        return self in (EventCategory.COMPOSITE_SINGLE_TX,
                        EventCategory.COMPOSITE_MULTI_TX)


class EventSpec:
    """Base class for event specifications.

    Composite-building operators (usable on every spec):

    * ``a >> b`` — :class:`~repro.core.algebra.Sequence` (a then b)
    * ``a & b`` — :class:`~repro.core.algebra.Conjunction` (both, any order)
    * ``a | b`` — :class:`~repro.core.algebra.Disjunction` (either)
    """

    def key(self) -> Hashable:
        """Dispatch identity; equal keys mean 'the same event type'."""
        raise NotImplementedError

    def leaves(self) -> list["PrimitiveEventSpec"]:
        """All primitive specs at the leaves of this (sub)tree."""
        raise NotImplementedError

    def category(self) -> EventCategory:
        raise NotImplementedError

    def effective_validity(self) -> Optional[float]:
        """The validity interval bounding semi-composed lifetimes."""
        return None

    def describe(self) -> str:
        return repr(self)

    # -- composite-building sugar (implemented in algebra to avoid cycles) --

    def __rshift__(self, other: "EventSpec"):
        from repro.core.algebra import Sequence
        return Sequence(self, other)

    def __and__(self, other: "EventSpec"):
        from repro.core.algebra import Conjunction
        return Conjunction(self, other)

    def __or__(self, other: "EventSpec"):
        from repro.core.algebra import Disjunction
        return Disjunction(self, other)


@dataclass(frozen=True)
class PrimitiveEventSpec(EventSpec):
    """Common base for the primitive flavours."""

    def leaves(self) -> list["PrimitiveEventSpec"]:
        return [self]

    @property
    def is_temporal(self) -> bool:
        return False


@dataclass(frozen=True)
class MethodEventSpec(PrimitiveEventSpec):
    """Invocation of ``class_name.method`` — the paper's core event.

    ``moment`` selects detection before or after the method body, matching
    the rule DDL's ``event after river->updateWaterLevel(x)``.
    ``param_names`` optionally bind the method's positional arguments to
    variable names usable in rule conditions (the ``(x)`` above).
    """

    class_name: str
    method: str
    moment: Moment = Moment.AFTER
    param_names: tuple[str, ...] = ()
    #: optional variable name the receiving instance is bound to in rule
    #: contexts (the DDL's ``decl River river ... event after river.m()``).
    instance_binding: Optional[str] = None

    def key(self) -> Hashable:
        # Detection identity only: parameter names and instance bindings
        # are per-rule concerns resolved at firing time, so rules with
        # different bindings still share one ECA-manager per event type.
        return ("method", self.class_name, self.method, self.moment.value)

    def category(self) -> EventCategory:
        return EventCategory.SINGLE_METHOD

    def describe(self) -> str:
        return (f"{self.moment.value} "
                f"{self.class_name}.{self.method}()")


@dataclass(frozen=True)
class StateChangeEventSpec(PrimitiveEventSpec):
    """A write to ``class_name.attribute`` (None = any attribute)."""

    class_name: str
    attribute: Optional[str] = None
    instance_binding: Optional[str] = None

    def key(self) -> Hashable:
        return ("state", self.class_name, self.attribute)

    def category(self) -> EventCategory:
        return EventCategory.SINGLE_METHOD

    def describe(self) -> str:
        attr = self.attribute or "*"
        return f"on change {self.class_name}.{attr}"


class FlowEventKind(enum.Enum):
    """Transaction-related and DB-internal flow-control events."""

    __hash__ = object.__hash__  # singletons: see CouplingMode

    BOT = "bot"
    EOT = "eot"            # after work, before commit
    COMMIT = "commit"
    ABORT = "abort"
    PERSIST = "persist"
    DELETE = "delete"
    FETCH = "fetch"


@dataclass(frozen=True)
class FlowEventSpec(PrimitiveEventSpec):
    """Flow-control event.

    The paper classifies transaction-related events with the simple method
    events (Section 3.2), so their category is SINGLE_METHOD: they can be
    related to the transaction in which they were raised.
    """

    kind: FlowEventKind

    def key(self) -> Hashable:
        return ("flow", self.kind.value)

    def category(self) -> EventCategory:
        return EventCategory.SINGLE_METHOD

    def describe(self) -> str:
        return f"on {self.kind.value}"


@dataclass(frozen=True)
class SignalEventSpec(PrimitiveEventSpec):
    """Explicit user signal, 'modelled as a method-invocation event'."""

    signal_name: str

    def key(self) -> Hashable:
        return ("signal", self.signal_name)

    def category(self) -> EventCategory:
        return EventCategory.SINGLE_METHOD

    def describe(self) -> str:
        return f"signal {self.signal_name!r}"


@dataclass(frozen=True)
class TemporalEventSpec(PrimitiveEventSpec):
    """Base for temporal events: they occur independently of transactions,
    so rules they trigger may only run detached (Table 1)."""

    def category(self) -> EventCategory:
        return EventCategory.PURELY_TEMPORAL

    @property
    def is_temporal(self) -> bool:
        return True


@dataclass(frozen=True)
class AbsoluteEventSpec(TemporalEventSpec):
    """An absolute point in time (clock seconds)."""

    at: float

    def key(self) -> Hashable:
        return ("time-abs", self.at)

    def describe(self) -> str:
        return f"at time {self.at}"


@dataclass(frozen=True)
class RelativeEventSpec(TemporalEventSpec):
    """``delay`` seconds after each occurrence of ``anchor``."""

    delay: float
    anchor: EventSpec

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise EventDefinitionError("relative delay must be >= 0")

    def key(self) -> Hashable:
        return ("time-rel", self.delay, self.anchor.key())

    def describe(self) -> str:
        return f"{self.delay}s after {self.anchor.describe()}"


@dataclass(frozen=True)
class PeriodicEventSpec(TemporalEventSpec):
    """Every ``period`` seconds, optionally bounded."""

    period: float
    start: Optional[float] = None
    end: Optional[float] = None
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise EventDefinitionError("period must be positive")
        if self.count is not None and self.count < 1:
            raise EventDefinitionError("count must be >= 1")

    def key(self) -> Hashable:
        return ("time-periodic", self.period, self.start, self.end,
                self.count)

    def describe(self) -> str:
        return f"every {self.period}s"


@dataclass(frozen=True)
class MilestoneEventSpec(TemporalEventSpec):
    """Milestone: raised when a transaction has not reached the labelled
    milestone by its scheduled time — the contingency-plan trigger of
    Section 3.1."""

    label: str

    def key(self) -> Hashable:
        return ("milestone", self.label)

    def describe(self) -> str:
        return f"milestone {self.label!r} missed"


_occurrence_seq = itertools.count(1)


def advance_occurrence_seq(floor: int) -> None:
    """Ensure future occurrence seqs are strictly greater than ``floor``.

    Called when occurrences are reconstructed from a durable composer
    checkpoint: restored seqs were allocated in a previous process, so the
    fresh counter must jump past them or the global total order (which
    sequence/temporal composition relies on) would interleave new
    occurrences *before* restored ones.
    """
    global _occurrence_seq
    nxt = next(_occurrence_seq)
    _occurrence_seq = itertools.count(max(nxt, floor + 1))


class EventType:
    """What every occurrence of one event type shares, taken from its
    spec once: the spec, its dispatch key and its Table 1 category.

    A :class:`~repro.core.eca_manager.PrimitiveECAManager` carries the
    same three attributes for its registered type; this stands in for a
    spec no manager is registered for (an unregistered signal).
    """

    __slots__ = ("spec", "key", "category")

    def __init__(self, spec: EventSpec):
        self.spec = spec
        self.key = spec.key()
        self.category = spec.category()


class EventOccurrence:
    """One detected event instance.

    ``tx_ids`` holds the ids of the *top-level* transactions the occurrence
    originated in (empty for temporal events).  For composites it is the
    union over components — the set whose outcomes the causally dependent
    coupling modes must respect.

    ``spec_key`` is the spec's dispatch key; a detector that knows it
    already (an ECA-manager, a composer node) passes it, so detection
    never walks the spec.  ``seq`` is drawn from the process-wide
    occurrence counter unless given.
    """

    __slots__ = ("spec", "spec_key", "category", "timestamp", "tx_ids",
                 "parameters", "components", "seq", "trace_id", "span_id",
                 "detected_at", "merged")

    def __init__(self, spec: EventSpec, category: EventCategory,
                 timestamp: float, tx_ids: frozenset[int] = frozenset(),
                 parameters: Optional[dict[str, Any]] = None,
                 components: tuple["EventOccurrence", ...] = (),
                 seq: Optional[int] = None,
                 spec_key: Optional[Hashable] = None):
        self.spec = spec
        self.spec_key = spec.key() if spec_key is None else spec_key
        self.category = category
        self.timestamp = timestamp
        self.tx_ids = tx_ids
        self.parameters = {} if parameters is None else parameters
        self.components = components
        self.seq = next(_occurrence_seq) if seq is None else seq
        #: observability context (``repro.obs``): the id of the trace this
        #: occurrence belongs to and the span that produced it.  Set by the
        #: event service / composer when tracing is enabled; carried on the
        #: occurrence so spans opened on other threads (composition
        #: workers, deferred drains, detached rules) attach to the
        #: originating trace.
        self.trace_id: Optional[int] = None
        self.span_id: Optional[int] = None
        #: ``perf_counter`` stamp taken at signal time when observability
        #: is on (0.0 otherwise); the scheduler subtracts it at
        #: rule-action completion for the end-to-end detection-latency SLO
        #: histograms.
        self.detected_at = 0.0
        #: set once, by ``GlobalHistory.drain``, when a merge request that
        #: covers this occurrence is applied: it is then in the global
        #: history.
        self.merged = False

    @property
    def is_composite(self) -> bool:
        return bool(self.components)

    def all_primitive_components(self) -> list["EventOccurrence"]:
        """Flatten to the primitive occurrences this one is built from."""
        if not self.components:
            return [self]
        out: list[EventOccurrence] = []
        for component in self.components:
            out.extend(component.all_primitive_components())
        return out

    def __repr__(self) -> str:
        return (f"<Event {self.spec.describe()} @{self.timestamp:.3f} "
                f"seq={self.seq} txs={sorted(self.tx_ids)}>")

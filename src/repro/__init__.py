"""REACH: a reproduction of the integrated active OODBMS of Buchmann,
Zimmermann, Blakeley & Wells (ICDE 1995).

Public API highlights:

* :class:`ReachEngine` — the integrated active OODBMS: one kernel owning
  every subsystem; ``engine.transaction()`` serves an embedded client.
* :class:`Session` — the per-client scope; open many sessions over one
  engine for concurrent clients.  A sharded topology is
  ``repro.core.sharding.ShardedEngine``, serving :class:`ShardedSession`.
* :func:`sentried` — the sentry mechanism (transparent event detection).
* Event specs (:class:`MethodEventSpec`, temporal specs, ...), the event
  algebra (:class:`Sequence`, :class:`Conjunction`, ...), consumption
  policies and coupling modes.
* :class:`ExecutionConfig` / :class:`ExecutionMode` — synchronous vs
  threaded execution.
* Observability (``repro.obs``): :class:`Tracer`/:class:`Trace`/
  :class:`Span` and :class:`MetricsRegistry`, surfaced on the engine as
  ``engine.trace()`` and ``engine.metrics()`` when
  ``ExecutionConfig(observability=True)``.
* :class:`RuleBuilder` — the fluent form of rule definition, started
  with ``engine.on(event)``.
* ``repro.layered`` — the Section 4 baseline: an active layer on top of a
  simulated closed commercial OODBMS.

``__all__`` below is the supported surface.  Engine internals (the event
service, scheduler, composer, transaction manager, ...) live in their
defining modules.
"""

from repro.clock import Clock, SystemClock, VirtualClock
from repro.config import (
    ExecutionConfig,
    ExecutionMode,
    ServerConfig,
    ShardingConfig,
    TieBreakPolicy,
)
from repro.core.algebra import (
    Closure,
    Conjunction,
    Disjunction,
    EventScope,
    History,
    Negation,
    Sequence,
    all_of,
    any_of,
    sequence_of,
)
from repro.core.consumption import ConsumptionPolicy
from repro.core.coupling import CouplingMode, is_supported, supported_modes
from repro.core.engine import ReachEngine
from repro.core.session import Session, ShardedSession
from repro.core.events import (
    AbsoluteEventSpec,
    EventCategory,
    EventOccurrence,
    EventSpec,
    FlowEventKind,
    FlowEventSpec,
    MethodEventSpec,
    MilestoneEventSpec,
    Moment,
    PeriodicEventSpec,
    RelativeEventSpec,
    SignalEventSpec,
    StateChangeEventSpec,
)
from repro.core.rule_builder import RuleBuilder
from repro.core.rules import Rule, RuleContext
from repro.errors import InjectedFault
from repro.faults import FaultRegistry
from repro.obs import MetricsRegistry, Span, Trace, Tracer
from repro.oodb.oid import OID
from repro.oodb.sentry import sentried, is_sentried

__version__ = "1.0.0"

__all__ = [
    "Clock",
    "SystemClock",
    "VirtualClock",
    "ExecutionConfig",
    "ExecutionMode",
    "ServerConfig",
    "ShardingConfig",
    "TieBreakPolicy",
    "Closure",
    "Conjunction",
    "Disjunction",
    "EventScope",
    "History",
    "Negation",
    "Sequence",
    "all_of",
    "any_of",
    "sequence_of",
    "ConsumptionPolicy",
    "CouplingMode",
    "is_supported",
    "supported_modes",
    "ReachEngine",
    "Session",
    "ShardedSession",
    "RuleBuilder",
    "Tracer",
    "Trace",
    "Span",
    "MetricsRegistry",
    "FaultRegistry",
    "InjectedFault",
    "AbsoluteEventSpec",
    "EventCategory",
    "EventOccurrence",
    "EventSpec",
    "FlowEventKind",
    "FlowEventSpec",
    "MethodEventSpec",
    "MilestoneEventSpec",
    "Moment",
    "PeriodicEventSpec",
    "RelativeEventSpec",
    "SignalEventSpec",
    "StateChangeEventSpec",
    "Rule",
    "RuleContext",
    "OID",
    "sentried",
    "is_sentried",
    "__version__",
]

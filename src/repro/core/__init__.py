"""REACH: the paper's contribution — an integrated active OODBMS layer.

Everything in this package implements Sections 2, 3 and 6 of the paper:
the event set and algebra, event composition relative to transaction
boundaries, lifespans and consumption policies, the six coupling modes with
the Table 1 support matrix, ECA-managers, and the rule execution engine.
"""

from repro.core.events import (
    EventCategory,
    EventOccurrence,
    EventSpec,
    FlowEventKind,
    FlowEventSpec,
    MethodEventSpec,
    Moment,
    PeriodicEventSpec,
    AbsoluteEventSpec,
    RelativeEventSpec,
    MilestoneEventSpec,
    SignalEventSpec,
    StateChangeEventSpec,
)
from repro.core.algebra import (
    Closure,
    Conjunction,
    Disjunction,
    EventScope,
    History,
    Negation,
    Sequence,
)
from repro.core.consumption import ConsumptionPolicy
from repro.core.coupling import (
    CouplingMode,
    SUPPORT_MATRIX,
    is_supported,
    supported_modes,
)
from repro.core.rule_builder import RuleBuilder
from repro.core.rules import Rule, RuleContext
from repro.core.engine import ReachEngine
from repro.core.session import Session

__all__ = [
    "EventCategory",
    "EventOccurrence",
    "EventSpec",
    "FlowEventKind",
    "FlowEventSpec",
    "MethodEventSpec",
    "Moment",
    "PeriodicEventSpec",
    "AbsoluteEventSpec",
    "RelativeEventSpec",
    "MilestoneEventSpec",
    "SignalEventSpec",
    "StateChangeEventSpec",
    "Closure",
    "Conjunction",
    "Disjunction",
    "EventScope",
    "History",
    "Negation",
    "Sequence",
    "ConsumptionPolicy",
    "CouplingMode",
    "SUPPORT_MATRIX",
    "is_supported",
    "supported_modes",
    "Rule",
    "RuleBuilder",
    "RuleContext",
    "ReachEngine",
    "Session",
]

"""ECA rules: event, condition, action, coupling modes, priorities.

A REACH rule (paper, Sections 3 and 6.1) separates the triggering **event**
from the **condition** and **action** parts.  Conditions and actions may
have different coupling modes relative to the triggering transaction — the
rule DDL writes ``cond imm ... action deferred ...`` — subject to the
constraint that the action may not be scheduled *earlier* than the
condition.  Rules carry priorities; same-priority ties are broken by the
rule's timestamp (oldest-first by default, Section 6.4).

Rules are mapped onto rule objects whose :meth:`Rule.evaluate_condition`
and :meth:`Rule.execute_action` call the attached functions, mirroring the
paper's base class ``Rule`` with ``evalCond()`` and ``execAction()``.
Specialized rule classes (consistency management, replication management,
...) can be derived from this base class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.core.coupling import CouplingMode
from repro.core.events import EventOccurrence, EventSpec
from repro.errors import RuleDefinitionError, RuleExecutionError

#: Scheduling order of coupling modes: a rule's action may not be coupled
#: earlier than its condition.
_COUPLING_ORDER = {
    CouplingMode.IMMEDIATE: 0,
    CouplingMode.DEFERRED: 1,
    CouplingMode.DETACHED: 2,
    CouplingMode.PARALLEL_CAUSALLY_DEPENDENT: 2,
    CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT: 2,
    CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT: 2,
}


@dataclass
class RuleContext:
    """Everything a condition or action can see.

    ``bindings`` maps variable names to values: the event's parameters
    (instance, args, result, old/new values, ...), the names declared by
    the rule DDL's ``decl`` clause, and any positional parameter names of
    the event clause.
    """

    rule: "Rule"
    event: EventOccurrence
    db: Any
    bindings: dict[str, Any] = field(default_factory=dict)
    transaction: Any = None

    def __getitem__(self, name: str) -> Any:
        return self.bindings[name]

    def get(self, name: str, default: Any = None) -> Any:
        return self.bindings.get(name, default)


Condition = Callable[[RuleContext], bool]
Action = Callable[[RuleContext], None]


class Rule:
    """One ECA rule.

    Args:
        name: unique rule name.
        event: the triggering event specification (primitive or composite).
        condition: predicate over the context; ``None`` means always true.
        action: the action callable; required.
        coupling: shorthand setting both condition and action coupling.
        cond_coupling / action_coupling: individual modes; the action mode
            may not be scheduled earlier than the condition mode.
        priority: larger fires earlier (the DDL's ``prio``).
        critical: a failing critical rule aborts the triggering transaction
            (immediate/deferred) instead of only its own subtransaction.
        enabled: disabled rules stay registered but never fire.
        description: free-text documentation.

    Subclass and override :meth:`evaluate_condition` /
    :meth:`execute_action` for specialized rule families.
    """

    _creation_counter = itertools.count(1)

    def __init__(self, name: str, event: EventSpec,
                 action: Optional[Action] = None,
                 condition: Optional[Condition] = None,
                 condition_query: Optional[str] = None,
                 coupling: CouplingMode = CouplingMode.IMMEDIATE,
                 cond_coupling: Optional[CouplingMode] = None,
                 action_coupling: Optional[CouplingMode] = None,
                 priority: int = 0,
                 critical: bool = False,
                 enabled: bool = True,
                 transfer_locks: bool = False,
                 description: str = ""):
        if not name:
            raise RuleDefinitionError("a rule needs a name")
        if event is None:
            raise RuleDefinitionError(f"rule {name!r} needs an event")
        if condition is not None and condition_query is not None:
            raise RuleDefinitionError(
                f"rule {name!r}: give either condition or condition_query")
        self.name = name
        self.event = event
        self.condition = condition
        #: OQL condition (Section 7's planned ECA + OQL[C++] combination):
        #: the condition holds iff the query returns a non-empty result.
        #: Event parameters are bound as query variables.
        self.condition_query = condition_query
        self.action = action
        self.cond_coupling = cond_coupling or coupling
        self.action_coupling = action_coupling or self.cond_coupling
        if _COUPLING_ORDER[self.action_coupling] < \
                _COUPLING_ORDER[self.cond_coupling]:
            raise RuleDefinitionError(
                f"rule {name!r}: action coupling "
                f"{self.action_coupling.value!r} is earlier than condition "
                f"coupling {self.cond_coupling.value!r}")
        if self.cond_coupling.is_detached and \
                self.action_coupling is not self.cond_coupling:
            raise RuleDefinitionError(
                f"rule {name!r}: a detached condition must share its "
                "coupling mode with the action")
        self.priority = priority
        self.critical = critical
        self.enabled = enabled
        #: exclusive causally dependent only: move the aborted trigger's
        #: locks to the contingency transaction (paper, Section 4).
        self.transfer_locks = transfer_locks
        self.description = description
        self.created_seq = next(Rule._creation_counter)
        #: the fixed inputs of :func:`sort_for_firing`, taken once at
        #: definition so ordering never walks the event spec again.
        self.firing_key = (-priority,
                           1 if event.category().is_composite else 0,
                           self.created_seq)
        #: ``(leaf key, parameter names, instance binding)`` of each leaf
        #: that names something, for :meth:`bind`; most rules have none.
        self._named_leaves = tuple(
            (leaf.key(), getattr(leaf, "param_names", ()),
             getattr(leaf, "instance_binding", None))
            for leaf in event.leaves()
            if getattr(leaf, "param_names", ())
            or getattr(leaf, "instance_binding", None))
        self.fired_count = 0
        self.condition_rejections = 0
        #: consecutive failed executions (reset by any success); at the
        #: configured ``quarantine_threshold`` the scheduler quarantines
        #: the rule: ``quarantined = True`` and ``enabled = False`` until
        #: an operator clears both.
        self.consecutive_failures = 0
        self.quarantined = False

    # ------------------------------------------------------------------

    @property
    def coupling(self) -> CouplingMode:
        """The condition coupling — what Table 1 constrains first."""
        return self.cond_coupling

    def bind(self, occ: EventOccurrence) -> dict:
        """Build this rule's variable bindings for one occurrence.

        Starts from the occurrence's generic parameters, then resolves the
        rule's own parameter names and instance bindings (``decl`` names
        and ``event after var.method(x)`` arguments) against the matching
        primitive components — rules with different bindings share one
        ECA-manager per event type, so binding is a rule-side concern.
        """
        bindings = dict(occ.parameters)
        if not self._named_leaves:
            return bindings
        primitives = occ.all_primitive_components()
        for key, param_names, instance_binding in self._named_leaves:
            for primitive in primitives:
                if primitive.spec_key != key:
                    continue
                args = primitive.parameters.get("args", ())
                for name, value in zip(param_names, args):
                    bindings[name] = value
                if instance_binding is not None:
                    bindings[instance_binding] = \
                        primitive.parameters.get("instance")
                break
        return bindings

    def evaluate_condition(self, ctx: RuleContext) -> bool:
        """``evalCond()``: run the condition (default True).

        A ``condition_query`` holds when the OQL query returns at least
        one row; the result rows are bound as ``ctx.bindings['matched']``
        for the action.  A callable ``condition`` is simply invoked.
        """
        if self.condition_query is not None:
            try:
                rows = ctx.db.query_processor.execute(
                    self.condition_query, env=ctx.bindings)
            except Exception as exc:
                raise RuleExecutionError(
                    f"rule {self.name!r}: condition query raised "
                    f"{exc!r}") from exc
            ctx.bindings["matched"] = rows
            return bool(rows)
        if self.condition is None:
            return True
        try:
            return bool(self.condition(ctx))
        except Exception as exc:
            raise RuleExecutionError(
                f"rule {self.name!r}: condition raised {exc!r}") from exc

    def execute_action(self, ctx: RuleContext) -> None:
        """``execAction()``: run the action function."""
        if self.action is None:
            return
        try:
            self.action(ctx)
        except Exception as exc:
            raise RuleExecutionError(
                f"rule {self.name!r}: action raised {exc!r}") from exc

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def __repr__(self) -> str:
        return (f"<Rule {self.name!r} on {self.event.describe()} "
                f"{self.cond_coupling.value}/{self.action_coupling.value} "
                f"prio={self.priority}>")


def firing_sort_key(newest_first: bool = False,
                    simple_events_first: bool = False
                    ) -> Callable[[Rule], tuple]:
    """The sort key of :func:`sort_for_firing`, for sorting other items
    (queued firings) by their rule."""
    def sort_key(rule: Rule) -> tuple:
        neg_priority, composite, seq = rule.firing_key
        tie = -seq if newest_first else seq
        if simple_events_first:
            return (neg_priority, composite, tie)
        return (neg_priority, tie)

    return sort_key


def sort_for_firing(rules: Iterable[Rule], newest_first: bool = False,
                    simple_events_first: bool = False) -> list[Rule]:
    """Order rules for execution (paper, Section 6.4).

    Priorities are the main criterion (higher first).  Ties break on the
    rule's timestamp: oldest rule first by default, newest first
    optionally.  The third policy — rules with simple events ahead of rules
    with complex events — applies to the deferred queue.
    """
    return sorted(rules,
                  key=firing_sort_key(newest_first, simple_events_first))

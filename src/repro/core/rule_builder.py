"""Fluent rule definition: ``engine.on(event).when(...).do(...).named(...)``.

The keyword form :meth:`RuleDefinitions.rule` mirrors the paper's DDL
block one argument per clause; the builder reads like the DDL itself::

    engine.on(MethodEventSpec("River", "update_water_level",
                              param_names=("x",))) \
      .when(lambda ctx: ctx["x"] < 37) \
      .do(lambda ctx: reduce_power(ctx)) \
      .coupling(CouplingMode.IMMEDIATE) \
      .priority(5) \
      .named("WaterLevel")

Every clause method returns the builder; :meth:`RuleBuilder.named` is the
terminal operation — it validates the (event category, coupling mode)
combination against Table 1 and registers the rule, exactly as
``engine.rule(...)`` would.  Nothing is registered until it is called, so
an abandoned builder has no effect.

:class:`RuleDefinitions` is the one definition of ``rule`` / ``on`` /
``define_rules`` / ``drop_rule`` / ``load_persistent_rules`` /
``get_rule`` / ``rules`` that both
:class:`~repro.core.engine.ReachEngine` and
:class:`~repro.core.sharding.ShardedEngine` inherit.
"""

from __future__ import annotations

from typing import Optional

from repro.core.coupling import CouplingMode
from repro.core.events import EventSpec
from repro.core.rule_language import compile_rules, rule_sources
from repro.core.rules import Action, Condition, Rule

__all__ = ["RuleBuilder", "RuleDefinitions"]


class RuleDefinitions:
    """Rule definition shared by both engines.

    Written against the host's ``register_rule``, ``unregister_rule``,
    ``_rules``, ``_lock``, ``dictionary``, ``tx_manager`` and ``flush``.
    On a sharded engine ``dictionary`` is shard 0's: persisted rule DDL
    lives in shard 0's catalog, whichever shard homes the rule; the
    transaction manager is the engine's own, which every shard shares.
    """

    def rule(self, name: str, event: EventSpec,
             action: Optional[Action] = None,
             condition: Optional[Condition] = None,
             condition_query: Optional[str] = None,
             coupling: CouplingMode = CouplingMode.IMMEDIATE,
             cond_coupling: Optional[CouplingMode] = None,
             action_coupling: Optional[CouplingMode] = None,
             priority: int = 0, critical: bool = False,
             enabled: bool = True, transfer_locks: bool = False,
             description: str = "") -> Rule:
        """Define and register one ECA rule.

        The (event category, coupling mode) combination is validated
        against Table 1 for both the condition and the action coupling;
        unsupported combinations raise
        :class:`~repro.errors.UnsupportedCouplingError` here, at
        definition time.
        """
        rule = Rule(name=name, event=event, action=action,
                    condition=condition, condition_query=condition_query,
                    coupling=coupling, cond_coupling=cond_coupling,
                    action_coupling=action_coupling, priority=priority,
                    critical=critical, enabled=enabled,
                    transfer_locks=transfer_locks,
                    description=description)
        return self.register_rule(rule)

    def on(self, event: EventSpec) -> "RuleBuilder":
        """Start a fluent rule definition (terminal ``.named(name)``)."""
        return RuleBuilder(self, event)

    def define_rules(self, ddl: str, persist: bool = False) -> list[Rule]:
        """Parse REACH rule DDL (the paper's textual syntax, Section 6.1)
        and register every rule found.

        With ``persist=True`` the DDL text is stored in the catalog —
        REACH's "rules are objects too" — and recompiled on the next open
        by :meth:`load_persistent_rules`.
        """
        rules = compile_rules(ddl, self)
        for rule in rules:
            self.register_rule(rule)
        if persist:
            self.dictionary.add_rule_ddl(ddl)
            self._flush_catalog()
        return rules

    def drop_rule(self, name: str) -> None:
        """Unregister a rule and delete its persisted definition, if any.

        A stored DDL block that defines other rules too is replaced by
        their own definitions, so they load on the next open as before.
        """
        self.unregister_rule(name)
        changed = False
        for ddl in self.dictionary.rule_ddl_blocks():
            sources = rule_sources(ddl)
            if sources.pop(name, None) is not None:
                self.dictionary.replace_rule_ddl(ddl, list(sources.values()))
                changed = True
        if changed:
            self._flush_catalog()

    def _flush_catalog(self) -> None:
        # Rule registration is not transactional, so neither is its DDL:
        # ``flush`` writes it in a top-level transaction of its own.
        self.flush()

    def load_persistent_rules(self) -> list[Rule]:
        """Recompile and register every rule-DDL block stored in the
        catalog.  Application classes referenced by the rules must be
        registered first.  Already-registered rule names are skipped."""
        loaded: list[Rule] = []
        for ddl in self.dictionary.rule_ddl_blocks():
            for rule in compile_rules(ddl, self):
                if rule.name in self._rules:
                    continue
                self.register_rule(rule)
                loaded.append(rule)
        return loaded

    def get_rule(self, name: str) -> Rule:
        return self._rules[name][0]

    def rules(self) -> list[Rule]:
        with self._lock:
            return [rule for rule, __ in self._rules.values()]


class RuleBuilder:
    """Accumulates one rule's clauses; terminal :meth:`named` registers it."""

    def __init__(self, db: RuleDefinitions, event: EventSpec):
        self._db = db
        self._event = event
        self._condition: Optional[Condition] = None
        self._condition_query: Optional[str] = None
        self._action: Optional[Action] = None
        self._coupling = CouplingMode.IMMEDIATE
        self._cond_coupling: Optional[CouplingMode] = None
        self._action_coupling: Optional[CouplingMode] = None
        self._priority = 0
        self._critical = False
        self._enabled = True
        self._transfer_locks = False
        self._description = ""

    # -- condition ---------------------------------------------------------

    def when(self, condition: Condition) -> "RuleBuilder":
        """Set the condition callable (``ctx -> bool``)."""
        self._condition = condition
        return self

    def when_query(self, text: str) -> "RuleBuilder":
        """Set an OQL-subset condition query (true iff non-empty result)."""
        self._condition_query = text
        return self

    # -- action ------------------------------------------------------------

    def do(self, action: Action) -> "RuleBuilder":
        """Set the action callable."""
        self._action = action
        return self

    # -- coupling and firing policy ----------------------------------------

    def coupling(self, mode: CouplingMode) -> "RuleBuilder":
        """E-C and C-A coupling together (the common single-mode case)."""
        self._coupling = mode
        return self

    def cond_coupling(self, mode: CouplingMode) -> "RuleBuilder":
        """E-C coupling alone (split rules)."""
        self._cond_coupling = mode
        return self

    def action_coupling(self, mode: CouplingMode) -> "RuleBuilder":
        """C-A coupling alone (split rules)."""
        self._action_coupling = mode
        return self

    def priority(self, value: int) -> "RuleBuilder":
        self._priority = value
        return self

    def critical(self, flag: bool = True) -> "RuleBuilder":
        """A failing critical rule aborts its triggering transaction."""
        self._critical = flag
        return self

    def disabled(self) -> "RuleBuilder":
        """Register the rule disabled (enable later via ``rule.enabled``)."""
        self._enabled = False
        return self

    def transfer_locks(self, flag: bool = True) -> "RuleBuilder":
        """Exclusive causally dependent mode: claim the trigger's locks."""
        self._transfer_locks = flag
        return self

    def describe(self, text: str) -> "RuleBuilder":
        self._description = text
        return self

    # -- terminal ----------------------------------------------------------

    def named(self, name: str) -> Rule:
        """Validate, register under ``name``, and return the rule."""
        return self._db.rule(
            name, event=self._event, action=self._action,
            condition=self._condition,
            condition_query=self._condition_query,
            coupling=self._coupling,
            cond_coupling=self._cond_coupling,
            action_coupling=self._action_coupling,
            priority=self._priority, critical=self._critical,
            enabled=self._enabled, transfer_locks=self._transfer_locks,
            description=self._description)

    def __repr__(self) -> str:
        return f"<RuleBuilder on {self._event.describe()} (unregistered)>"

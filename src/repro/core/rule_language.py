"""The textual REACH rule DDL (paper, Section 6.1).

The paper defines rules in a small C++-flavoured language::

    rule WaterLevel {
        prio 5;
        decl River river, Reactor reactor named "BlockA";
        event after river->updateWaterLevel(x);
        cond imm x < 37 and river->getWaterTemp() > 24.5
                 and reactor->getHeatOutput() > 1000000;
        action imm reactor->reducePlannedPower(0.05);
    };

This module parses that syntax (``->`` and ``.`` are interchangeable) and
compiles each rule into a :class:`~repro.core.rules.Rule` whose condition
and action closures evaluate over the declared variables — the Python
analog of the paper's generated ``<Rule>Cond`` / ``<Rule>Action`` C
functions archived in a shared library.

Clauses:

* ``prio N;`` — priority.
* ``decl Class var [named "persistent-name"], ...;`` — variable
  declarations.  A ``named`` variable is fetched from the database when the
  rule runs (the paper's ``OpenOODB->fetch("Block A")``); an unnamed
  variable is bound to the instance the triggering event occurred on.
* ``event <event-expr>;`` — the triggering event.  Primitive forms:
  ``after var.method(p1, p2)``, ``before var.method()``,
  ``on change var.attr``, ``on commit|abort|bot|eot|persist|delete``,
  ``signal "name"``, ``at T``, ``every T``, ``milestone "label"``.
  Composites: ``A then B`` (sequence), ``A also B`` (conjunction),
  ``A else B`` (disjunction), with optional ``within T`` validity and
  ``across`` to allow the components to originate in different
  transactions (Section 3.2's composite-n-TX events; requires
  ``within``).
* ``cond <mode> <expr>;`` — condition with coupling mode ``imm``,
  ``deferred``, ``detached``, ``parallel``, ``sequential``, ``exclusive``.
* ``action <mode> <stmt>, ...;`` — statements are method calls or
  assignments ``var.attr = expr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.coupling import CouplingMode
from repro.core.events import (
    AbsoluteEventSpec,
    EventSpec,
    FlowEventKind,
    FlowEventSpec,
    MethodEventSpec,
    MilestoneEventSpec,
    Moment,
    PeriodicEventSpec,
    SignalEventSpec,
    StateChangeEventSpec,
)
from repro.core.algebra import (
    Conjunction,
    Disjunction,
    EventScope,
    Sequence,
)
from repro.core.rules import Rule, RuleContext
from repro.errors import RuleParseError
from repro.expr import Attribute, Binary, Node, Parser, Token, tokenize

_MODES = {
    "imm": CouplingMode.IMMEDIATE,
    "immediate": CouplingMode.IMMEDIATE,
    "deferred": CouplingMode.DEFERRED,
    "detached": CouplingMode.DETACHED,
    "parallel": CouplingMode.PARALLEL_CAUSALLY_DEPENDENT,
    "sequential": CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT,
    "exclusive": CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT,
}

_FLOW_KINDS = {kind.value: kind for kind in FlowEventKind}


@dataclass
class Declaration:
    class_name: str
    variable: str
    persistent_name: Optional[str] = None


@dataclass
class ParsedRule:
    name: str
    priority: int
    declarations: list[Declaration]
    event: EventSpec
    cond_mode: Optional[CouplingMode]
    cond_expr: Optional[Node]
    action_mode: CouplingMode
    action_statements: list[Node]


class _Cursor:
    """Token cursor shared with the expression parser."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token.text != text:
            raise RuleParseError(
                f"expected {text!r} at position {token.position}, got "
                f"{token.text!r}")
        return self.advance()

    def expect_name(self) -> Token:
        token = self.advance()
        if token.kind != "name":
            raise RuleParseError(
                f"expected identifier at position {token.position}, got "
                f"{token.text!r}")
        return token

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def parse_expression(self) -> Node:
        """Delegate to the shared expression parser, advancing this
        cursor past the consumed tokens."""
        parser = Parser(self.tokens[self.pos:])
        node = parser.parse_expression()
        self.pos += parser._pos
        return node


def parse_rules(text: str) -> list[ParsedRule]:
    """Parse DDL text containing one or more rule definitions."""
    cursor = _Cursor(text)
    rules: list[ParsedRule] = []
    while not cursor.at_end():
        token = cursor.peek()
        if token.text == ";":
            cursor.advance()
            continue
        if token.kind == "name" and token.text == "rule":
            rules.append(_parse_rule(cursor))
        else:
            raise RuleParseError(
                f"expected 'rule' at position {token.position}, got "
                f"{token.text!r}")
    if not rules:
        raise RuleParseError("no rule definitions found")
    return rules


def _parse_rule(cursor: _Cursor) -> ParsedRule:
    cursor.expect("rule")
    name = cursor.expect_name().text
    cursor.expect("{")
    priority = 0
    declarations: list[Declaration] = []
    event: Optional[EventSpec] = None
    cond_mode: Optional[CouplingMode] = None
    cond_expr: Optional[Node] = None
    action_mode: Optional[CouplingMode] = None
    action_statements: list[Node] = []
    while not cursor.at("}"):
        clause = cursor.expect_name().text
        if clause == "prio":
            token = cursor.advance()
            if token.kind != "num":
                raise RuleParseError("prio requires a number")
            priority = int(float(token.text))
        elif clause == "decl":
            declarations.extend(_parse_declarations(cursor))
        elif clause == "event":
            event = _parse_event(cursor, declarations)
        elif clause == "cond":
            cond_mode = _parse_mode(cursor)
            cond_expr = cursor.parse_expression()
        elif clause == "action":
            action_mode = _parse_mode(cursor)
            action_statements = _parse_statements(cursor)
        else:
            raise RuleParseError(f"unknown clause {clause!r} in rule "
                                 f"{name!r}")
        cursor.expect(";")
    cursor.expect("}")
    if event is None:
        raise RuleParseError(f"rule {name!r} has no event clause")
    if action_mode is None:
        raise RuleParseError(f"rule {name!r} has no action clause")
    return ParsedRule(name=name, priority=priority,
                      declarations=declarations, event=event,
                      cond_mode=cond_mode, cond_expr=cond_expr,
                      action_mode=action_mode,
                      action_statements=action_statements)


def _parse_mode(cursor: _Cursor) -> CouplingMode:
    token = cursor.expect_name()
    mode = _MODES.get(token.text)
    if mode is None:
        raise RuleParseError(
            f"unknown coupling mode {token.text!r} at {token.position}")
    return mode


def _parse_declarations(cursor: _Cursor) -> list[Declaration]:
    declarations = []
    while True:
        class_name = cursor.expect_name().text
        variable = cursor.expect_name().text
        persistent_name = None
        if cursor.at("named"):
            cursor.advance()
            token = cursor.advance()
            if token.kind != "str":
                raise RuleParseError("named requires a string literal")
            persistent_name = token.text[1:-1]
        declarations.append(Declaration(class_name, variable,
                                        persistent_name))
        if cursor.at(","):
            cursor.advance()
            continue
        return declarations


def _parse_event(cursor: _Cursor,
                 declarations: list[Declaration]) -> EventSpec:
    spec = _parse_primitive_event(cursor, declarations)
    while cursor.peek().text in ("then", "also", "else"):
        connector = cursor.advance().text
        right = _parse_primitive_event(cursor, declarations)
        if connector == "then":
            spec = Sequence(spec, right)
        elif connector == "also":
            spec = Conjunction(spec, right)
        else:
            spec = Disjunction(spec, right)
    while cursor.peek().text in ("within", "across"):
        keyword = cursor.advance().text
        if keyword == "within":
            token = cursor.advance()
            if token.kind != "num":
                raise RuleParseError("within requires a number of seconds")
            spec = spec.within(float(token.text))
        else:
            from repro.core.algebra import CompositeEventSpec
            if not isinstance(spec, CompositeEventSpec):
                raise RuleParseError(
                    "'across' applies to composite events only")
            spec = spec.scoped(EventScope.MULTI_TX)
    return spec


def _class_of_variable(declarations: list[Declaration],
                       variable: str) -> str:
    for decl in declarations:
        if decl.variable == variable:
            return decl.class_name
    raise RuleParseError(f"variable {variable!r} is not declared")


def _parse_primitive_event(cursor: _Cursor,
                           declarations: list[Declaration]) -> EventSpec:
    token = cursor.expect_name()
    keyword = token.text
    if keyword in ("after", "before"):
        variable = cursor.expect_name().text
        cursor.expect(".")
        method = cursor.expect_name().text
        params: list[str] = []
        cursor.expect("(")
        while not cursor.at(")"):
            params.append(cursor.expect_name().text)
            if cursor.at(","):
                cursor.advance()
        cursor.expect(")")
        return MethodEventSpec(
            class_name=_class_of_variable(declarations, variable),
            method=method,
            moment=Moment.AFTER if keyword == "after" else Moment.BEFORE,
            param_names=tuple(params),
            instance_binding=variable)
    if keyword == "on":
        what = cursor.expect_name().text
        if what == "change":
            variable = cursor.expect_name().text
            cursor.expect(".")
            attribute = cursor.expect_name().text
            return StateChangeEventSpec(
                class_name=_class_of_variable(declarations, variable),
                attribute=attribute,
                instance_binding=variable)
        kind = _FLOW_KINDS.get(what)
        if kind is None:
            raise RuleParseError(f"unknown flow event {what!r}")
        return FlowEventSpec(kind)
    if keyword == "signal":
        token = cursor.advance()
        if token.kind == "str":
            return SignalEventSpec(token.text[1:-1])
        if token.kind == "name":
            return SignalEventSpec(token.text)
        raise RuleParseError("signal requires a name")
    if keyword == "at":
        token = cursor.advance()
        if token.kind != "num":
            raise RuleParseError("at requires a number (absolute time)")
        return AbsoluteEventSpec(float(token.text))
    if keyword == "every":
        token = cursor.advance()
        if token.kind != "num":
            raise RuleParseError("every requires a number (period)")
        return PeriodicEventSpec(float(token.text))
    if keyword == "milestone":
        token = cursor.advance()
        if token.kind != "str":
            raise RuleParseError("milestone requires a string label")
        return MilestoneEventSpec(token.text[1:-1])
    raise RuleParseError(f"unknown event form {keyword!r}")


def _parse_statements(cursor: _Cursor) -> list[Node]:
    statements = [cursor.parse_expression()]
    while cursor.at(","):
        cursor.advance()
        statements.append(cursor.parse_expression())
    return statements


# ---------------------------------------------------------------------------
# Compilation to Rule objects
# ---------------------------------------------------------------------------

def _build_environment(parsed: ParsedRule, ctx: RuleContext) -> dict[str, Any]:
    env: dict[str, Any] = dict(ctx.bindings)
    for decl in parsed.declarations:
        if decl.persistent_name is not None:
            env[decl.variable] = ctx.db.fetch(decl.persistent_name)
        elif decl.variable not in env:
            # Unnamed variable not bound by the event: leave unbound; the
            # expression evaluator reports a clear error if referenced.
            pass
    return env


def _compile_condition(parsed: ParsedRule):
    if parsed.cond_expr is None:
        return None

    def condition(ctx: RuleContext) -> bool:
        env = _build_environment(parsed, ctx)
        return bool(parsed.cond_expr.evaluate(env))

    return condition


def _compile_action(parsed: ParsedRule):
    statements = parsed.action_statements

    def action(ctx: RuleContext) -> None:
        env = _build_environment(parsed, ctx)
        for statement in statements:
            # `var.attr = value` parses as an OQL-style '=' comparison with
            # an attribute target; in action position it is an assignment.
            if isinstance(statement, Binary) and statement.op == "=" and \
                    isinstance(statement.left, Attribute):
                target = statement.left.target.evaluate(env)
                setattr(target, statement.left.name,
                        statement.right.evaluate(env))
            else:
                statement.evaluate(env)

    return action


def compile_rules(text: str, db: Any) -> list[Rule]:
    """Parse DDL and build unregistered :class:`Rule` objects.

    ``db`` is referenced by the compiled closures for ``named`` fetches;
    registration (and Table 1 validation) is the caller's job — use
    :meth:`~repro.core.rule_builder.RuleDefinitions.define_rules`
    normally.
    """
    rules = []
    for parsed in parse_rules(text):
        cond_mode = parsed.cond_mode or parsed.action_mode
        rules.append(Rule(
            name=parsed.name,
            event=parsed.event,
            condition=_compile_condition(parsed),
            action=_compile_action(parsed),
            cond_coupling=cond_mode,
            action_coupling=parsed.action_mode,
            priority=parsed.priority,
            description=f"compiled from DDL",
        ))
    return rules

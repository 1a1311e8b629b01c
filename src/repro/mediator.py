"""Heterogeneous event mediation.

REACH is the "REal-time ACtive and **Heterogeneous mediator** system"
(paper, Section 1): the same rule mechanisms are meant to provide
"unified handling of consistency constraints in homogeneous as well as
heterogeneous systems", and Section 6.3 notes that many small composers
are "a necessary step toward distributed event detection/composition".

This module provides that mediation layer at laptop scale: *event links*
forward primitive event occurrences from source databases into a mediator
database, where they surface as signal events that the mediator's rules
and composers consume like any local event.

Semantics follow from the paper's own transaction model:

* a forwarded occurrence carries **no mediator transaction** — it is an
  external happening, like a temporal event.  Mediator rules on forwarded
  events therefore run detached (immediate rules get a fresh top-level
  transaction), and composites over forwarded events must be
  multi-transaction scoped with a validity interval — exactly the
  Section 3.2/3.3 rules, which the mediator inherits rather than bends;
* sources can be heterogeneous: a :func:`link_events` source is another
  REACH database (sentry-detected events), while
  :func:`link_layered_events` adapts the wrapper-based layered system —
  mediation works with whatever detection the source can offer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.events import EventOccurrence, EventSpec
from repro.layered.layered_adbms import LayeredActiveDBMS, LayeredRule


@dataclass
class EventLink:
    """One source -> mediator forwarding channel.

    ``signal_name`` is the event name in the mediator's namespace;
    ``source_name`` tags each forwarded occurrence's parameters so rules
    can tell sources apart.  ``transform`` optionally rewrites the
    forwarded parameter dict (schema mediation).
    """

    source_name: str
    signal_name: str
    mediator: Any
    transform: Optional[Callable[[dict], dict]] = None
    forwarded: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)
    _detach: Optional[Callable[[], None]] = field(default=None, repr=False)

    def deliver(self, parameters: dict) -> None:
        """Raise the forwarded occurrence in the mediator."""
        payload = dict(parameters)
        payload["source"] = self.source_name
        if self.transform is not None:
            payload = self.transform(payload)
        with self._lock:
            self.forwarded += 1
        # External origin: explicitly no mediator transaction.
        self.mediator.events.emit_signal(self.signal_name, payload,
                                         tx_ids=frozenset())

    def close(self) -> None:
        if self._detach is not None:
            self._detach()
            self._detach = None


def link_events(source_db: Any, mediator_db: Any, spec: EventSpec,
                signal_name: str, source_name: str = "",
                transform: Optional[Callable[[dict], dict]] = None,
                forward_committed_only: bool = False) -> EventLink:
    """Forward occurrences of a primitive ``spec`` from one REACH database
    into another.

    With ``forward_committed_only=True`` the link buffers occurrences per
    source transaction and releases them only when that transaction
    commits (aborted work never leaks to the mediator); otherwise events
    stream as detected.
    """
    link = EventLink(source_name=source_name or f"db@{id(source_db):x}",
                     signal_name=signal_name, mediator=mediator_db,
                     transform=transform)
    manager = source_db.events.primitive_manager(spec)

    def _bound(occ: EventOccurrence) -> dict:
        """Resolve the spec's parameter names (binding is normally a
        rule-side concern; the link plays the rule here)."""
        parameters = dict(occ.parameters)
        for name, value in zip(getattr(spec, "param_names", ()),
                               parameters.get("args", ())):
            parameters[name] = value
        return _exportable(parameters)

    if not forward_committed_only:
        def listener(occ: EventOccurrence) -> None:
            link.deliver(_bound(occ))

        manager.add_listener(listener)
        link._detach = lambda: manager.remove_listener(listener)
        return link

    buffered: dict[int, list[dict]] = {}
    buffer_lock = threading.Lock()

    def listener(occ: EventOccurrence) -> None:
        if not occ.tx_ids:
            link.deliver(_bound(occ))
            return
        tx_id = next(iter(occ.tx_ids))
        with buffer_lock:
            buffered.setdefault(tx_id, []).append(_bound(occ))

    def on_commit(tx) -> None:
        with buffer_lock:
            ready = buffered.pop(tx.id, [])
        for parameters in ready:
            link.deliver(parameters)

    def on_abort(tx) -> None:
        with buffer_lock:
            buffered.pop(tx.id, None)

    manager.add_listener(listener)
    # The link dataclass is unhashable; its commit hook keys its hooks.
    source_db.tx_manager.set_hooks(on_commit, post_commit=(on_commit,),
                                   abort=(on_abort,))

    def detach() -> None:
        manager.remove_listener(listener)
        source_db.tx_manager.set_hooks(on_commit)

    link._detach = detach
    return link


def link_layered_events(layer: LayeredActiveDBMS, mediator_db: Any,
                        class_name: str, method: str, signal_name: str,
                        source_name: str = "") -> EventLink:
    """Adapt a *layered* source: forwarding rides on a wrapper-level rule.

    The layered system's limits apply to the mediation too: only wrapped
    classes report, only method events exist, and — having no transaction
    signals — events stream immediately, committed or not.  The mediator
    absorbs heterogeneous sources at whatever fidelity they offer.
    """
    link = EventLink(source_name=source_name or "layered",
                     signal_name=signal_name, mediator=mediator_db)

    def forward(bindings: dict) -> None:
        link.deliver({
            "method": bindings.get("method"),
            "args": bindings.get("args"),
            "result": bindings.get("result"),
        })

    rule = LayeredRule(name=f"mediator-link-{signal_name}",
                       class_name=class_name, method=method,
                       action=forward)
    layer.register_rule(rule)
    return link


def _exportable(parameters: dict) -> dict:
    """Strip values that must not cross the database boundary.

    Live object references belong to the source's address space; the
    mediator receives values and descriptive fields only (the Section 3.2
    rule applied across databases: no transient references escape)."""
    out: dict[str, Any] = {}
    for key, value in parameters.items():
        if key == "instance":
            out["instance_repr"] = _describe(value)
        elif isinstance(value, (str, int, float, bool, bytes, tuple,
                                list, dict, type(None))):
            out[key] = value
        else:
            out[key] = _describe(value)
    return out


def _describe(value: Any) -> str:
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return f"{type(value).__name__}({name})"
    return type(value).__name__

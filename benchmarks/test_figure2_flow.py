"""F2 — Figure 2: the ECA-oriented architecture (method part).

Traces one method event through the exact message flow of the figure:

    method call -> (sentry detects) -> Method ECA-manager: create event
    object, fire directly-triggered rule, store in local history,
    propagate to the Composite ECA-manager -> composer completes the
    composite -> composite manager stores it and fires the non-immediate
    rule -> go-ahead returns to the execution engine.

Asserts the arrows appear in the figure's order, then times the full
per-event path (detection -> immediate fire -> propagation).
"""

import pytest

from repro import (
    CouplingMode,
    MethodEventSpec,
    ReachEngine,
    Sequence,
    SignalEventSpec,
    sentried,
)
from repro.core.eca_manager import CompositeECAManager, PrimitiveECAManager


@sentried
class Boiler:
    def heat(self, amount):
        return amount


HEAT = MethodEventSpec("Boiler", "heat")


def _traced_database(tmp_path, trace):
    # Patch the manager classes *before* the database wires listeners, so
    # the bound methods stored in listener lists are the traced ones.
    refs = {}
    original_handle = PrimitiveECAManager.handle
    original_feed = CompositeECAManager.feed
    original_handle_composite = CompositeECAManager.handle_composite

    def traced_handle(self, occ, propagate):
        if self is refs.get("primitive"):
            trace.append("Method call -> Method ECA-manager")
            trace.append("create -> Event object")
        original_handle(self, occ, propagate)
        if self is refs.get("primitive"):
            trace.append("store -> local history")
            trace.append("go-ahead -> execution engine")

    def traced_feed(self, occ):
        if self is refs.get("composite"):
            trace.append("propagate -> Composite ECA-manager")
        original_feed(self, occ)

    def traced_handle_composite(self, occ):
        if self is refs.get("composite"):
            trace.append("create -> composite Event object")
        original_handle_composite(self, occ)
        if self is refs.get("composite"):
            trace.append("store -> composite local history")

    PrimitiveECAManager.handle = traced_handle
    CompositeECAManager.feed = traced_feed
    CompositeECAManager.handle_composite = traced_handle_composite

    db = ReachEngine(directory=str(tmp_path))
    db.register_class(Boiler)
    db.rule("direct", HEAT,
            action=lambda ctx: trace.append("fire -> Rule('direct')"))
    db.rule("on-composite", Sequence(HEAT, SignalEventSpec("confirm")),
            action=lambda ctx: trace.append("fire -> Rule('on-composite')"),
            coupling=CouplingMode.DEFERRED)
    refs["primitive"] = db.events.primitive_manager(HEAT)
    refs["composite"] = db.events.composite_managers()[0]

    def restore():
        PrimitiveECAManager.handle = original_handle
        CompositeECAManager.feed = original_feed
        CompositeECAManager.handle_composite = original_handle_composite

    return db, restore


def test_figure2_reproduction(benchmark, tmp_path, results_report):
    trace = []
    db, restore = _traced_database(tmp_path / "f2", trace)
    try:
        boiler = Boiler()
        with db.transaction():
            boiler.heat(10)          # primitive: direct rule fires
            db.signal("confirm")     # completes the composite
    finally:
        restore()

    text_lines = ["Figure 2: ECA-oriented architecture (method part) — "
                  "observed message flow:", ""]
    text_lines += [f"  {index + 1}. {entry}"
                   for index, entry in enumerate(trace)]
    text = results_report("F2_eca_flow", text_lines)
    print("\n" + text)

    # The figure's arrows, in order, for the method event:
    def index_of(needle):
        return next(i for i, entry in enumerate(trace) if needle in entry)

    assert index_of("Method call -> Method ECA-manager") \
        < index_of("create -> Event object") \
        < index_of("fire -> Rule('direct')") \
        < index_of("go-ahead -> execution engine")
    # Propagation to the composer happens after the go-ahead decision for
    # immediate rules (Section 6.4's no-wait design).
    assert index_of("propagate -> Composite ECA-manager") \
        > index_of("fire -> Rule('direct')")
    assert index_of("create -> composite Event object") \
        > index_of("propagate -> Composite ECA-manager")
    assert "fire -> Rule('on-composite')" in trace

    # Benchmark the per-event path without the tracing overhead
    # (close the traced database first so its detectors are gone).
    db.close()
    import tempfile
    db2 = ReachEngine(directory=tempfile.mkdtemp(prefix="f2b-"))
    db2.register_class(Boiler)
    db2.rule("direct", HEAT, action=lambda ctx: None)
    db2.rule("on-composite", Sequence(HEAT, SignalEventSpec("confirm")),
             action=lambda ctx: None, coupling=CouplingMode.DEFERRED)
    boiler = Boiler()
    tx = db2.tx_manager.begin()

    benchmark(boiler.heat, 10)

    db2.tx_manager.abort(tx)
    db2.close()

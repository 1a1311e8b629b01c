"""Heterogeneous mediation: REACH as the 'Heterogeneous mediator system'.

REACH's own name expands to "REal-time ACtive and Heterogeneous mediator
system", and the paper motivates active rules for "unified handling of
consistency constraints in homogeneous as well as heterogeneous systems"
(Section 1).  This example mediates over two *different* source systems:

* a modern REACH database running the north plant (sentry detection,
  committed-only forwarding — aborted source work never reaches the
  mediator),
* a legacy installation on the *layered* stack over a closed OODBMS
  running the south plant (wrapper detection only — the mediator absorbs
  whatever fidelity the source offers),

and runs a cross-source composite rule in the mediator: if both plants
report an overload within ten minutes, shed regional load.

Run with::

    python examples/heterogeneous_mediator.py
"""

from repro import (
    Conjunction,
    CouplingMode,
    EventScope,
    MethodEventSpec,
    ReachEngine,
    SignalEventSpec,
    sentried,
)
from repro.layered import ClosedOODB, LayeredActiveDBMS
from repro.mediator import link_events, link_layered_events


@sentried
class NorthPlant:
    """Schema of the modern installation."""

    def __init__(self):
        self.load = 0.0

    def report_load(self, megawatts):
        self.load = megawatts
        return megawatts


class SouthPlantLegacy:
    """Schema of the legacy installation (plain class: the closed OODBMS
    offers no sentries; the layered wrapper must be used)."""

    def report(self, mw):
        return mw


def main():
    north_db = ReachEngine()
    north_db.register_class(NorthPlant)
    legacy = LayeredActiveDBMS(ClosedOODB(license_seats=2))
    ActiveSouth = legacy.activate_class(SouthPlantLegacy)
    mediator = ReachEngine()

    # -- links: one per source, heterogeneous adapters -------------------
    link_events(
        north_db, mediator,
        MethodEventSpec("NorthPlant", "report_load",
                        param_names=("megawatts",)),
        signal_name="north-load", source_name="north",
        forward_committed_only=True,
        transform=lambda p: {**p, "overload": p["megawatts"] > 900})
    link_layered_events(legacy, mediator, "SouthPlantLegacy", "report",
                        signal_name="south-load", source_name="south")

    # -- mediator rules ----------------------------------------------------
    shed = []
    overload_north = SignalEventSpec("north-load")
    overload_south = SignalEventSpec("south-load")
    spec = Conjunction(overload_north, overload_south) \
        .scoped(EventScope.MULTI_TX).within(600.0)
    mediator.rule(
        "RegionalOverload", spec,
        condition=lambda ctx: ctx.get("overload") and
        ctx["args"][0] > 900,
        action=lambda ctx: shed.append("shed regional load"),
        coupling=CouplingMode.DETACHED)

    log = []
    mediator.rule("MediatorLog", overload_north,
                  action=lambda ctx: log.append(
                      (ctx["source"], ctx["megawatts"])),
                  coupling=CouplingMode.DETACHED)

    # -- drive the sources --------------------------------------------------
    north = NorthPlant()
    south = ActiveSouth()

    print("== an aborted north report never reaches the mediator ==")
    try:
        with north_db.transaction():
            north.report_load(950)
            raise RuntimeError("operator aborts the reading")
    except RuntimeError:
        pass
    mediator.drain_detached()
    print(f"mediator log: {log}")
    assert log == []

    print("\n== committed overloads from both plants compose ==")
    with north_db.transaction():
        north.report_load(950)
    legacy.begin()
    south.report(975)
    legacy.commit()
    mediator.drain_detached()
    print(f"mediator log: {log}")
    print(f"actions: {shed}")
    assert shed == ["shed regional load"]

    print("\n== moderate loads do not trigger the composite condition ==")
    shed.clear()
    with north_db.transaction():
        north.report_load(500)
    legacy.begin()
    south.report(480)
    legacy.commit()
    mediator.drain_detached()
    print(f"actions: {shed}")
    assert shed == []

    north_db.close()
    mediator.close()
    print("\ndone")


if __name__ == "__main__":
    main()

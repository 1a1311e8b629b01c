"""Power-plant monitoring: the paper's Section 6.1 running example.

Reproduces the WaterLevel environmental rule *verbatim in the rule DDL*:

    Whenever the water level of the river from which the cooling water is
    drawn reaches a lower mark AND the water temperature is above a
    maximum temperature AND the heat-load given off is above a threshold,
    THEN the Planned Power Output must be reduced by 5%.

Also shows two REACH capabilities around it:

* a *milestone* with a contingency plan (Section 3.1): if the maintenance
  transaction has not finished by its deadline, a detached contingency
  rule raises an operator alert;
* a composite *Negation* rule: if a heat reading opens an alert window
  and no operator acknowledgement arrives before the end-of-shift signal,
  an escalation fires.

Run with::

    python examples/power_plant.py
"""

from repro import (
    CouplingMode,
    MethodEventSpec,
    MilestoneEventSpec,
    Negation,
    ReachEngine,
    SignalEventSpec,
    sentried,
)
from repro.bench.workloads import Reactor, River

WATER_LEVEL_RULE = """
rule WaterLevel {
    prio 5;
    decl River river, Reactor reactor named "BlockA";
    event after river.update_water_level(x);
    cond imm x < 37 and river.get_water_temp() > 24.5
             and reactor.get_heat_output() > 1000000;
    action imm reactor.reduce_planned_power(0.05);
};
"""


@sentried
class ControlRoom:
    def __init__(self):
        self.alerts = []

    def alert(self, message):
        self.alerts.append(message)
        print(f"  [ALERT] {message}")


def main():
    db = ReachEngine()
    db.register_class(River)
    db.register_class(Reactor)
    db.register_class(ControlRoom)

    river = River("Rhein")
    reactor = Reactor("BlockA", planned_power=1000.0)
    control = ControlRoom()
    with db.transaction():
        db.persist(river, "Rhein")
        db.persist(reactor, "BlockA")
        db.persist(control, "ControlRoom")

    # --- 1. The paper's rule, from its textual DDL --------------------
    db.define_rules(WATER_LEVEL_RULE)
    print("== WaterLevel rule (paper Section 6.1) ==")
    with db.transaction():
        river.update_water_level(30)          # temp/heat normal: no fire
    print(f"benign low level  -> planned power {reactor.planned_power:.1f}")
    with db.transaction():
        river.update_water_temp(25.5)
        reactor.set_heat_output(1_200_000.0)
        river.update_water_level(30)          # all three conditions hold
    print(f"hot + loaded + low -> planned power {reactor.planned_power:.1f} "
          f"({reactor.power_reductions} reduction)")

    # --- 2. Milestone with contingency plan ---------------------------
    print("\n== Milestone / contingency plan (Section 3.1) ==")
    db.rule("MaintenanceContingency", MilestoneEventSpec("pump-swap"),
            action=lambda ctx: ctx.db.fetch("ControlRoom").alert(
                f"milestone {ctx['label']!r} missed - invoke contingency"),
            coupling=CouplingMode.DETACHED)
    tx = db.tx_manager.begin(deadline=db.clock.now() + 100)
    db.set_milestone("pump-swap", at=db.clock.now() + 40)
    db.clock.advance(50)                       # deadline passes mid-work
    db.tx_manager.commit(tx)
    db.drain_detached()

    # --- 3. Negation: unacknowledged alert escalates -------------------
    print("\n== Negation composite: missing acknowledgement ==")
    heat_event = MethodEventSpec("Reactor", "set_heat_output",
                                 param_names=("w",))
    ack = SignalEventSpec("operator-ack")
    end_of_shift = SignalEventSpec("end-of-shift")
    db.rule("EscalateUnacked",
            Negation(ack, heat_event, end_of_shift),
            action=lambda ctx: ctx.db.fetch("ControlRoom").alert(
                "heat spike not acknowledged before end of shift"),
            coupling=CouplingMode.DEFERRED)
    with db.transaction():
        reactor.set_heat_output(1_500_000.0)   # opens the window
        db.signal("end-of-shift")              # closes it without an ack
    with db.transaction():
        reactor.set_heat_output(1_100_000.0)
        db.signal("operator-ack")              # acknowledged in time
        db.signal("end-of-shift")              # no escalation
    print(f"\ncontrol-room alerts: {len(control.alerts)}")
    assert len(control.alerts) == 2

    stats = db.statistics()
    print(f"events detected: {stats['events']['detected']}, "
          f"rules registered: {stats['rules']}")
    db.close()


if __name__ == "__main__":
    main()

"""Quickstart: a minimal active-database session.

Demonstrates the core loop of the REACH reproduction:

1. declare a *sentried* class (transparent event detection),
2. open a database and register the class,
3. define an ECA rule on a method event with the fluent builder
   (``db.on(event).when(...).do(...).named(...)``),
4. run transactions — the rule fires at the detection point, inside a
   subtransaction of the trigger, and its effects roll back if the
   trigger aborts,
5. inspect what happened through ``db.trace()`` and ``db.statistics()``
   (observability is enabled here; it is off by default).

Run with::

    python examples/quickstart.py
"""

from repro import (
    CouplingMode,
    ExecutionConfig,
    MethodEventSpec,
    ReachEngine,
    sentried,
)


@sentried
class Thermostat:
    """An ordinary class; the decorator does not change how it is used."""

    def __init__(self, room):
        self.room = room
        self.temperature = 20.0
        self.heater_on = False

    def read_temperature(self, value):
        self.temperature = value

    def switch_heater(self, on):
        self.heater_on = on


def main():
    # Transient database in a temp directory; observability on so the
    # session can be inspected with db.trace() afterwards.
    db = ReachEngine(config=ExecutionConfig(observability=True))
    db.register_class(Thermostat)

    # ECA rule: Event  = after Thermostat.read_temperature
    #           Cond   = reading below 18 degrees
    #           Action = switch the heater on
    db.on(MethodEventSpec("Thermostat", "read_temperature",
                          param_names=("value",))) \
      .when(lambda ctx: ctx["value"] < 18.0) \
      .do(lambda ctx: ctx["instance"].switch_heater(True)) \
      .coupling(CouplingMode.IMMEDIATE) \
      .priority(5) \
      .named("KeepWarm")

    living_room = Thermostat("living room")
    with db.transaction():
        db.persist(living_room, "living-room")
        living_room.read_temperature(21.0)
        print(f"21.0 degrees -> heater on: {living_room.heater_on}")
        living_room.read_temperature(16.5)
        print(f"16.5 degrees -> heater on: {living_room.heater_on}")

    # Rule effects are transactional: abort the trigger, lose the action.
    with db.transaction():
        living_room.switch_heater(False)   # committed: heater off
    try:
        with db.transaction():
            living_room.read_temperature(12.0)
            assert living_room.heater_on   # rule turned it on...
            raise RuntimeError("operator aborts the transaction")
    except RuntimeError:
        pass
    assert not living_room.heater_on
    print(f"after abort -> heater on: {living_room.heater_on} "
          "(rule action rolled back with the trigger)")

    # Queries see committed state.
    rows = db.query("select x.room from Thermostat x "
                    "where x.temperature < 22")
    print(f"rooms below 22 degrees: {rows}")

    print("\nfiring log:")
    for record in db.scheduler.firing_log:
        print(f"  {record.rule_name:10s} {record.mode.value:10s} "
              f"-> {record.outcome}")

    # Observability: the last trace is the aborted trigger's span tree —
    # sentry detection, ECA dispatch, the rule firing, its commit.
    print("\nlast trace:")
    print(db.trace().format())
    stats = db.statistics()
    print(f"\nevents detected: {stats['events']['detected']}, "
          f"rules fired (immediate): "
          f"{stats['observability']['counters']['rules.fired.immediate']}")
    db.close()


if __name__ == "__main__":
    main()

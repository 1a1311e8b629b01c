"""Commodity trading: consumption contexts and cross-transaction events.

The paper motivates active databases with commodity trading (Section 1)
and cites the Dow Jones index as the canonical use of the *continuous*
consumption context (Section 3.4).  This example monitors a stock stream:

* a **History** rule in the default context: three ticks of the same
  basket within a time window -> volatility alarm;
* a cross-transaction **Sequence** with a validity interval: a price spike
  followed, in a *different* transaction within 60 seconds, by a large
  volume print -> momentum signal.  The semi-composed event expires if the
  volume never arrives (the Section 3.3 lifespan rule in action);
* the same spike/volume pattern under the **continuous** context, showing
  how each spike opens its own window.

Run with::

    python examples/stock_ticker.py
"""

from repro import (
    ConsumptionPolicy,
    CouplingMode,
    EventScope,
    History,
    MethodEventSpec,
    ReachEngine,
    Sequence,
    SignalEventSpec,
    sentried,
)
from repro.bench.workloads import Stock, StockTickerWorkload

TICK = MethodEventSpec("Stock", "tick", param_names=("price",))


def main():
    db = ReachEngine()
    db.register_class(Stock)

    signals = []

    # --- volatility alarm: 3 ticks within 5 (virtual) seconds ----------
    db.rule("VolatilityAlarm",
            History(TICK, count=3, window=5.0)
            .scoped(EventScope.MULTI_TX).within(30.0),
            action=lambda ctx: signals.append(
                ("volatility", len(ctx.event.components))),
            coupling=CouplingMode.DETACHED)

    # --- momentum: spike then big volume within 60s, across txs --------
    spike = SignalEventSpec("price-spike")
    volume = SignalEventSpec("volume-print")
    db.rule("Momentum",
            Sequence(spike, volume).scoped(EventScope.MULTI_TX).within(60.0),
            action=lambda ctx: signals.append(("momentum", None)),
            coupling=CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT)

    workload = StockTickerWorkload(symbols=4, ticks=30, seed=3)
    stocks = workload.build_symbols()
    with db.transaction():
        for stock in stocks:
            db.persist(stock, stock.symbol)

    print("== feeding ticks, one transaction per tick ==")
    for index, (symbol_index, price) in enumerate(workload.events()):
        with db.transaction():
            stocks[symbol_index].tick(price)
        db.clock.advance(1.0)
    db.drain_detached()
    volatility = [s for s in signals if s[0] == "volatility"]
    print(f"volatility alarms: {len(volatility)}")

    print("\n== momentum pattern across transactions ==")
    signals.clear()
    with db.transaction():
        db.signal("price-spike")
    db.clock.advance(10.0)
    with db.transaction():
        db.signal("volume-print")          # within validity: fires
    db.drain_detached()
    print(f"momentum signals (volume arrived in time): "
          f"{[s for s in signals if s[0] == 'momentum']}")

    signals.clear()
    with db.transaction():
        db.signal("price-spike")
    db.clock.advance(120.0)                 # validity (60s) expires; the
    db.collect_garbage()                    # semi-composed event is GC'd
    with db.transaction():
        db.signal("volume-print")
    db.drain_detached()
    print(f"momentum signals (volume too late): "
          f"{[s for s in signals if s[0] == 'momentum']}")
    print(f"semi-composed events pending after GC: "
          f"{db.events.pending_semi_composed()}")

    print("\n== continuous context: every spike opens a window ==")
    fired = []
    db.rule("ContinuousMomentum",
            Sequence(spike, volume).scoped(EventScope.MULTI_TX)
            .within(60.0).consumed(ConsumptionPolicy.CONTINUOUS),
            action=lambda ctx: fired.append(1),
            coupling=CouplingMode.DETACHED)
    for __ in range(3):
        with db.transaction():
            db.signal("price-spike")        # three open windows
        db.clock.advance(1.0)
    with db.transaction():
        db.signal("volume-print")           # completes all three
    db.drain_detached()
    print(f"one volume print completed {len(fired)} continuous windows")
    db.close()


if __name__ == "__main__":
    main()

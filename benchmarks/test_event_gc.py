"""E6 — Lifespan-bounded garbage collection of semi-composed events
(Sections 3.3 and 6.3).

Workload: cross-transaction sequences whose terminator never arrives, so
every initiator leaves a semi-composed event behind, plus
single-transaction composites abandoned at commit.

Measured:

* growth of the semi-composed population *without* lifespan enforcement
  (validity effectively infinite) — unbounded;
* the population under validity-interval GC — bounded by the arrival
  rate x validity window;
* zero leakage for single-transaction composites (graph instances die at
  EOT);
* the cost of a GC sweep.
"""

import pytest

from repro import (
    CouplingMode,
    EventScope,
    ReachEngine,
    Sequence,
    SignalEventSpec,
    sentried,
)


@sentried
class Spout:
    def drip(self):
        return True


def _database(tmp_path, validity):
    from repro import MethodEventSpec
    db = ReachEngine(directory=str(tmp_path))
    db.register_class(Spout)
    spec = Sequence(MethodEventSpec("Spout", "drip"),
                    SignalEventSpec("never")) \
        .scoped(EventScope.MULTI_TX).within(validity)
    db.rule("doomed", spec, action=lambda ctx: None,
            coupling=CouplingMode.DETACHED)
    return db


def _generate(db, events, advance=1.0):
    spout = Spout()
    for __ in range(events):
        with db.transaction():
            spout.drip()
        db.clock.advance(advance)


def test_unbounded_growth_without_gc(benchmark, tmp_path, results_report):
    rows = []
    # Effectively infinite validity: nothing ever expires.
    db = _database(tmp_path / "nogc", validity=1e12)
    for batch in range(5):
        _generate(db, 100)
        rows.append(("no GC", (batch + 1) * 100,
                     db.events.pending_semi_composed()))
    no_gc_final = db.events.pending_semi_composed()
    db.close()

    # Validity of 50 time units at 1 event/unit: steady state ~50.
    db = _database(tmp_path / "gc", validity=50.0)
    for batch in range(5):
        _generate(db, 100)
        db.collect_garbage()
        rows.append(("validity GC", (batch + 1) * 100,
                     db.events.pending_semi_composed()))
    gc_final = db.events.pending_semi_composed()
    gc_removed = db.events.composers()[0].gc_removed
    db.close()

    lines = ["E6: semi-composed event population "
             "(never-completing cross-tx sequences)",
             "",
             f"{'strategy':>12s} {'events fed':>11s} {'pending':>8s}"]
    for strategy, fed, pending in rows:
        lines.append(f"{strategy:>12s} {fed:>11d} {pending:>8d}")
    lines.append("")
    lines.append(f"GC removed in total: {gc_removed}")
    text = results_report("E6_event_gc", lines)
    print("\n" + text)

    assert no_gc_final == 500          # unbounded: everything retained
    assert gc_final <= 55              # bounded by the validity window
    assert gc_removed >= 445


def test_single_tx_composites_die_at_eot(benchmark, tmp_path):
    from repro import MethodEventSpec
    db = ReachEngine(directory=str(tmp_path / "eot"))
    db.register_class(Spout)
    spec = Sequence(MethodEventSpec("Spout", "drip"),
                    SignalEventSpec("never"))
    db.rule("doomed", spec, action=lambda ctx: None,
            coupling=CouplingMode.DEFERRED)
    spout = Spout()
    for __ in range(50):
        with db.transaction():
            spout.drip()
            assert db.events.pending_semi_composed() >= 1
    # Every graph instance was discarded with its transaction.
    assert db.events.pending_semi_composed() == 0
    db.close()


def test_gc_sweep_cost(benchmark, tmp_path):
    db = _database(tmp_path / "cost", validity=50.0)
    _generate(db, 500)

    benchmark(db.collect_garbage)
    db.close()

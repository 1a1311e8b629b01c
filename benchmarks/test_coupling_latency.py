"""E9 — End-to-end cost of the six coupling modes.

For one rule per coupling mode, measures the full transaction cost of an
event that triggers it, in µs and in Python calls, and records *when*
the action ran relative to the triggering transaction (detection point /
EOT / after outcome) — the semantic placement of Section 3.2 made
visible.  The call counts do not depend on the machine, so each row has
a ceiling that fails the harness when the row's work grows.
"""

import statistics
import sys
import time

import pytest

from repro import (
    CouplingMode,
    MethodEventSpec,
    ReachEngine,
    sentried,
)


@sentried
class Gauge:
    def read(self, value):
        return value


READ = MethodEventSpec("Gauge", "read")

MODES = list(CouplingMode)


def _database(tmp_path, mode):
    db = ReachEngine(directory=str(tmp_path))
    db.register_class(Gauge)
    db.rule("probe", READ, action=lambda ctx: None, coupling=mode)
    return db


@pytest.mark.parametrize("mode", MODES,
                         ids=[mode.name.lower() for mode in MODES])
def test_coupling_mode_cost(benchmark, tmp_path, mode):
    db = _database(tmp_path / mode.name, mode)
    gauge = Gauge()

    def run():
        with db.transaction():
            gauge.read(1)
        db.drain_detached()

    benchmark.pedantic(run, rounds=50, iterations=1)
    db.close()


def test_baseline_no_rules(benchmark, tmp_path):
    db = ReachEngine(directory=str(tmp_path / "none"))
    db.register_class(Gauge)
    gauge = Gauge()

    def run():
        with db.transaction():
            gauge.read(1)

    benchmark.pedantic(run, rounds=50, iterations=1)
    db.close()


#: Python calls per row's transaction (``None``: no rule), measured when
#: the detection path took its per-type and per-transaction values once
#: (``docs/performance.md``, "the detection path pays per occurrence");
#: a row that grows past its ceiling fails ``test_cost_report``.
CALL_CEILINGS = {
    None: 41,
    CouplingMode.IMMEDIATE: 76,
    CouplingMode.DEFERRED: 81,
    CouplingMode.DETACHED: 120,
    CouplingMode.PARALLEL_CAUSALLY_DEPENDENT: 129,
    CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT: 123,
    CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT: 88,
}


def _calls(run) -> int:
    """Python calls one ``run()`` makes, fewest of three (a garbage
    collection landing in one run adds its callbacks' calls)."""
    counts = []
    for __ in range(3):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if event == "call":
                count += 1
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        counts.append(count)
    return min(counts)


def test_cost_report(tmp_path, results_report):
    """µs and Python calls per transaction of every row: one
    ``Gauge.read`` in a transaction, then ``drain_detached``."""
    rows = {}
    for mode in [None, *MODES]:
        name = "baseline" if mode is None else mode.name
        db = ReachEngine(directory=str(tmp_path / name)) if mode is None \
            else _database(tmp_path / name, mode)
        if mode is None:
            db.register_class(Gauge)
        gauge = Gauge()

        def run(db=db, gauge=gauge):
            with db.transaction():
                gauge.read(1)
            db.drain_detached()

        try:
            for __ in range(50):  # steady state: lazy caches are built
                run()
            calls = _calls(run)
            spent = []
            for __ in range(200):
                start = time.perf_counter()
                run()
                spent.append(time.perf_counter() - start)
        finally:
            db.close()
        rows[mode] = (statistics.median(spent) * 1e6, calls)
    lines = ["E9: one transaction with one event and one no-op rule "
             "(median µs of 200, Python calls)", ""]
    for mode, (micros, calls) in rows.items():
        label = "baseline (no rule)" if mode is None else mode.value
        lines.append(f"  {label:32s} {micros:8.1f} µs  {calls:5d} calls")
    print("\n" + results_report("E9_coupling_cost", lines))
    grown = {("baseline" if mode is None else mode.value):
             (calls, CALL_CEILINGS[mode])
             for mode, (__, calls) in rows.items()
             if calls > CALL_CEILINGS[mode]}
    assert not grown, f"rows past their call ceilings: {grown}"


def test_placement_report(benchmark, tmp_path, results_report):
    """Record where each mode's action executes relative to the trigger:
    the action samples the trigger's recorded outcome and the trigger's
    state at the moment it runs."""
    from repro.oodb.transactions import TransactionState

    placements = {}
    for mode in MODES:
        db = _database(tmp_path / f"p-{mode.name}", mode)
        observed = {}
        trigger_ref = {}

        def action(ctx, observed=observed, trigger_ref=trigger_ref, db=db):
            trigger = trigger_ref["tx"]
            observed["outcome"] = db.tx_manager.outcome_of(trigger.id)
            observed["trigger_state"] = trigger.state
            observed["before_work"] = not trigger_ref.get("work_done")

        db.get_rule("probe").action = action
        gauge = Gauge()
        try:
            with db.transaction() as tx:
                trigger_ref["tx"] = tx
                gauge.read(1)
                trigger_ref["work_done"] = True
            db.drain_detached()
        finally:
            db.close()
        if not observed:
            placements[mode] = "never (trigger committed)"
        elif observed["outcome"] is not None:
            placements[mode] = "after trigger outcome"
        elif observed["before_work"]:
            placements[mode] = "at detection point (inside trigger)"
        elif observed["trigger_state"] is TransactionState.COMMITTING:
            placements[mode] = "at EOT (before commit)"
        else:
            placements[mode] = "inside trigger (late)"

    expected = {
        CouplingMode.IMMEDIATE: "at detection point (inside trigger)",
        CouplingMode.DEFERRED: "at EOT (before commit)",
        CouplingMode.DETACHED: "after trigger outcome",
        CouplingMode.PARALLEL_CAUSALLY_DEPENDENT: "after trigger outcome",
        CouplingMode.SEQUENTIAL_CAUSALLY_DEPENDENT:
            "after trigger outcome",
        CouplingMode.EXCLUSIVE_CAUSALLY_DEPENDENT:
            "never (trigger committed)",
    }
    lines = ["E9: where each coupling mode's action executes "
             "(synchronous mode)", ""]
    for mode in MODES:
        lines.append(f"  {mode.value:32s} -> {placements[mode]}")
    text = results_report("E9_coupling_placement", lines)
    print("\n" + text)
    assert placements == expected

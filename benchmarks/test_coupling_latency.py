"""E9 — End-to-end cost of the six coupling modes.

For one rule per coupling mode, measures the full transaction cost of an
event that triggers it, and records *when* the action ran relative to the
triggering transaction (detection point / EOT / after outcome) — the
semantic placement of Section 3.2 made visible.
"""

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

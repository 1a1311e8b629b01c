"""E12 — End-to-end active-database throughput on the motivating workload.

Section 2 demands "efficiency and tight integration of DBMS functionality
and ECA-rule execution".  This harness runs the power-plant monitoring
workload (the paper's Section 6.1 scenario, scaled) through the whole
stack — sentry detection, rule scheduling, persistence, WAL — and reports
update throughput:

* passive baseline (no rules registered: useless-overhead regime),
* active with the WaterLevel rule (immediate coupling),
* active in threaded mode (composition off the caller's thread).

Expected shape: the active overhead is proportional to the alarm rate
(rules that do not fire cost near nothing), not to the update rate.
"""

import pytest

from repro import (
    CouplingMode,
    ExecutionConfig,
    ExecutionMode,
    MethodEventSpec,
    ReachEngine,
)
from repro.bench.workloads import PowerPlantWorkload, Reactor, River

WATER_LEVEL = MethodEventSpec("River", "update_water_level",
                              param_names=("x",))


def _database(tmp_path, threaded=False):
    config = ExecutionConfig(
        mode=ExecutionMode.THREADED if threaded
        else ExecutionMode.SYNCHRONOUS)
    db = ReachEngine(directory=str(tmp_path), config=config)
    db.register_class(River)
    db.register_class(Reactor)
    return db


def _install_water_level_rule(db):
    def condition(ctx):
        river = ctx["instance"]
        reactor = ctx.db.fetch("BlockA")
        return (ctx["x"] < 37 and river.get_water_temp() > 24.5
                and reactor.get_heat_output() > 1_000_000)

    db.rule("WaterLevel", WATER_LEVEL, condition=condition,
            action=lambda ctx: ctx.db.fetch("BlockA")
            .reduce_planned_power(0.05),
            coupling=CouplingMode.IMMEDIATE, priority=5)


def _run_workload(db, workload, river, reactor):
    with db.transaction():
        for kind, value in workload.events():
            workload.apply(river, reactor, kind, value)


@pytest.mark.parametrize("scenario", ["passive", "active", "active-threaded"])
def test_power_plant_throughput(benchmark, tmp_path, scenario):
    workload = PowerPlantWorkload(updates=300, alarm_fraction=0.05)
    db = _database(tmp_path / scenario,
                   threaded=(scenario == "active-threaded"))
    river, reactor = workload.build_plant()
    with db.transaction():
        db.persist(river, "Rhein")
        db.persist(reactor, "BlockA")
    if scenario != "passive":
        _install_water_level_rule(db)

    benchmark.pedantic(_run_workload, args=(db, workload, river, reactor),
                       rounds=10, iterations=1)
    if scenario != "passive":
        assert reactor.power_reductions > 0
    db.close()


@pytest.mark.parametrize("alarm_fraction", [0.0, 0.05, 0.5])
def test_cost_tracks_alarm_rate(benchmark, tmp_path, alarm_fraction):
    """The active tax should follow the firing rate, not the event rate."""
    workload = PowerPlantWorkload(updates=300,
                                  alarm_fraction=alarm_fraction)
    db = _database(tmp_path / f"rate-{alarm_fraction}")
    river, reactor = workload.build_plant()
    with db.transaction():
        db.persist(river, "Rhein")
        db.persist(reactor, "BlockA")
    _install_water_level_rule(db)

    benchmark.pedantic(_run_workload, args=(db, workload, river, reactor),
                       rounds=10, iterations=1)
    db.close()


def test_workload_report(benchmark, tmp_path, results_report):
    import time
    rows = []
    for scenario, threaded, rules in (("passive", False, False),
                                      ("active", False, True),
                                      ("active-threaded", True, True)):
        workload = PowerPlantWorkload(updates=300, alarm_fraction=0.05)
        db = _database(tmp_path / f"rep-{scenario}", threaded=threaded)
        river, reactor = workload.build_plant()
        with db.transaction():
            db.persist(river, "Rhein")
            db.persist(reactor, "BlockA")
        if rules:
            _install_water_level_rule(db)
        _run_workload(db, workload, river, reactor)   # warm-up
        samples = []
        for __ in range(8):
            start = time.perf_counter()
            _run_workload(db, workload, river, reactor)
            samples.append(time.perf_counter() - start)
        median = sorted(samples)[len(samples) // 2]
        rows.append((scenario, median,
                     workload.updates / median))
        db.close()

    lines = ["E12: power-plant workload, 300 sensor updates/transaction",
             "",
             f"{'scenario':>18s} {'per batch':>11s} {'updates/s':>11s}"]
    for scenario, median, rate in rows:
        lines.append(f"{scenario:>18s} {median * 1000:>9.2f}ms "
                     f"{rate:>11.0f}")
    passive, active = rows[0][1], rows[1][1]
    lines.append("")
    lines.append(f"active/passive cost ratio: {active / passive:.2f}x "
                 f"at 5% alarm rate")
    text = results_report("E12_end_to_end", lines)
    print("\n" + text)

    # Shape: the active system stays within an order of magnitude of the
    # passive baseline at a 5% firing rate.
    assert active < passive * 10

"""E3 — Sequential vs parallel rule execution (Section 6.4 / Section 7).

The first REACH prototype mapped potentially-parallel rule sets onto an
ordered firing sequence, "with the advantage that we will be able to
perform actual measurements comparing the gain of parallel rule execution
with the overhead incurred for setting up the parallel subtransactions".

This harness performs exactly that measurement: k rules fired by one
event, actions of varying cost, executed (a) serially in priority order
and (b) as parallel sibling subtransactions on threads.

Expected shape: for cheap actions the parallel setup overhead loses; for
actions that block (I/O, waiting on devices — the paper's monitoring
domain), parallel wins roughly k-fold.
"""

import time

import pytest

from repro import (
    ExecutionConfig,
    ExecutionMode,
    MethodEventSpec,
    ReachEngine,
    sentried,
)


@sentried
class Trigger:
    def fire(self):
        return True


FIRE = MethodEventSpec("Trigger", "fire")


def _database(tmp_path, parallel: bool, rules: int, action_cost: float,
              observability: bool = False):
    config = ExecutionConfig(
        mode=ExecutionMode.THREADED if parallel
        else ExecutionMode.SYNCHRONOUS,
        parallel_rules=parallel, worker_threads=max(4, rules),
        observability=observability)
    db = ReachEngine(directory=str(tmp_path), config=config)
    db.register_class(Trigger)

    def action(ctx):
        if action_cost > 0:
            time.sleep(action_cost)

    for index in range(rules):
        db.rule(f"r{index}", FIRE, action=action)
    return db


def _run_event(db):
    with db.transaction():
        Trigger().fire()


@pytest.mark.parametrize("strategy", ["sequential", "parallel"])
@pytest.mark.parametrize("rules", [4, 8])
def test_blocking_actions(benchmark, tmp_path, strategy, rules):
    """2 ms blocking action per rule: latency hiding should pay off."""
    db = _database(tmp_path / f"{strategy}{rules}",
                   parallel=(strategy == "parallel"), rules=rules,
                   action_cost=0.002)
    benchmark.pedantic(_run_event, args=(db,), rounds=20, iterations=1)
    db.close()


@pytest.mark.parametrize("strategy", ["sequential", "parallel"])
def test_cheap_actions(benchmark, tmp_path, strategy):
    """No-op actions: the parallel thread setup is pure overhead."""
    db = _database(tmp_path / f"cheap-{strategy}",
                   parallel=(strategy == "parallel"), rules=8,
                   action_cost=0.0)
    benchmark.pedantic(_run_event, args=(db,), rounds=20, iterations=1)
    db.close()


def test_crossover_report(tmp_path, results_report,
                          bench_obs_report):
    """Sweep action cost; find where parallel starts winning.

    Runs with observability enabled and measures through the database's
    own :class:`MetricsRegistry` — event latency goes into a histogram on
    the registry, and the reproduced rows are cross-checked against the
    engine's ``rules.fired.*`` counters and ``rule.action.latency``
    histogram before everything is exported to ``results/BENCH_obs.json``.
    """
    rows = []
    obs_rows = []
    rules = 6
    for cost_ms in (0.0, 0.2, 1.0, 5.0):
        timings = {}
        obs_row = {"action_cost_ms": cost_ms}
        for strategy in ("sequential", "parallel"):
            db = _database(
                tmp_path / f"x-{strategy}-{cost_ms}",
                parallel=(strategy == "parallel"), rules=rules,
                action_cost=cost_ms / 1000.0, observability=True)
            _run_event(db)  # warm-up
            latency = db.metrics().histogram("e3.event_latency")
            for __ in range(10):
                with latency.time():
                    _run_event(db)
            timings[strategy] = latency.percentile(50)
            snapshot = db.metrics().snapshot()
            fired = sum(value
                        for name, value in snapshot["counters"].items()
                        if name.startswith("rules.fired."))
            # 11 events (warm-up + 10 measured), each firing every rule.
            assert fired == 11 * rules
            obs_row[strategy] = {
                "event_latency": snapshot["histograms"]["e3.event_latency"],
                "action_latency":
                    snapshot["histograms"]["rule.action.latency"],
                "rules_fired": fired,
            }
            db.close()
        rows.append((cost_ms, timings["sequential"], timings["parallel"]))
        obs_rows.append(obs_row)

    lines = [f"E3: sequential vs parallel rule execution "
             f"({rules} rules fired by one event)", "",
             f"{'action cost':>12s} {'sequential':>12s} {'parallel':>12s} "
             f"{'speedup':>8s}"]
    for cost_ms, seq, par in rows:
        lines.append(f"{cost_ms:>10.1f}ms {seq * 1000:>10.2f}ms "
                     f"{par * 1000:>10.2f}ms {seq / par:>7.2f}x")
    text = results_report("E3_parallel_rules", lines)
    print("\n" + text)

    bench_obs_report("E3_parallel_rules", {
        "rules": rules,
        "samples_per_point": 10,
        "rows": obs_rows,
    })

    # Shape: with 5 ms blocking actions, parallel must win clearly; with
    # free actions, sequential must not lose (setup overhead dominates).
    expensive = rows[-1]
    assert expensive[2] < expensive[1], "parallel should win when blocking"
    cheap = rows[0]
    assert cheap[1] <= cheap[2] * 1.5, \
        "sequential should be competitive for free actions"

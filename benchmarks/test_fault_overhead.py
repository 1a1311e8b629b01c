"""Fault-point overhead on the E1 sentry path.

The fault-injection framework claims near-zero cost in production: a
database built without ``fault_injection=True`` hands every instrumented
component the shared null point, whose ``hit()`` is an empty method call
— no lookup, no branch on armed specs.  Even an *enabled* registry with
nothing armed only pays one ``if not self._specs`` per point.

This harness quantifies both claims on the same workload as the
observability budget: a sentried method consumed by an immediate rule,
one top-level transaction per call, so every cycle crosses the WAL
append/fsync, storage commit, lock acquire and scheduler points — the
hottest instrumented boundaries.

Methodology (shared with ``test_obs_overhead.py``, tuned for a noisy
machine): disabled and enabled-unarmed rounds are interleaved so drift
hits both sides equally, and the comparison uses each side's best round.
"""

import time

from repro import ExecutionConfig, MethodEventSpec, ReachEngine, sentried

EVENTS_PER_ROUND = 100
ROUNDS = 40

# The budget: disabled fault points must cost < 2% per event cycle.
BUDGET = 0.02


# Two identical sentried classes: the sentry registry is process-wide,
# so each database watches its own class to keep the workloads disjoint.
@sentried(track_state=False)
class ProbePlain:
    def ping(self, value):
        self.setting = value
        return value


@sentried(track_state=False)
class ProbeFaulty:
    def ping(self, value):
        self.setting = value
        return value


class _Tally:
    def __init__(self):
        self.value = 0


def _database(tmp_path, fault_injection, probe_cls, tally):
    db = ReachEngine(directory=str(tmp_path),
                     config=ExecutionConfig(fault_injection=fault_injection,
                                              history_capacity=256))
    db.register_class(probe_cls)

    def bump(ctx):
        tally.value += ctx["value"]

    db.on(MethodEventSpec(probe_cls.__name__, "ping",
                          param_names=("value",))) \
      .when(lambda ctx: ctx["value"] >= 0) \
      .do(bump).named("probe-rule")
    return db


def _one_round(db, probe):
    for index in range(EVENTS_PER_ROUND):
        with db.transaction():
            probe.ping(index)


def test_disabled_fault_points_under_2_percent(tmp_path, bench_faults_report):
    """Null fault points must cost < 2% per event-processing cycle."""
    tally_plain = _Tally()
    tally_faulty = _Tally()
    plain_db = _database(tmp_path / "plain", fault_injection=False,
                         probe_cls=ProbePlain, tally=tally_plain)
    faulty_db = _database(tmp_path / "faulty", fault_injection=True,
                          probe_cls=ProbeFaulty, tally=tally_faulty)
    probe_plain = ProbePlain()
    probe_faulty = ProbeFaulty()

    # Warm-up on both sides before timing starts.
    _one_round(plain_db, probe_plain)
    _one_round(faulty_db, probe_faulty)

    plain_samples = []
    faulty_samples = []
    for __ in range(ROUNDS):
        start = time.perf_counter()
        _one_round(plain_db, probe_plain)
        plain_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        _one_round(faulty_db, probe_faulty)
        faulty_samples.append(time.perf_counter() - start)

    plain_best = min(plain_samples)
    faulty_best = min(faulty_samples)
    overhead = faulty_best / plain_best - 1.0

    # Both rules really ran on every call.
    expected = sum(range(EVENTS_PER_ROUND)) * (ROUNDS + 1)
    assert tally_plain.value == expected
    assert tally_faulty.value == expected

    # The disabled side really took the null path; the enabled side holds
    # real (but disarmed) points on the hot boundaries and never fired.
    # Disarmed hits skip even the call counter — that IS the fast path —
    # so the proof of wiring is the live point object, not stats().
    from repro.faults import NULL_POINT
    assert plain_db.faults.enabled is False
    assert plain_db.faults.point("wal.append") is NULL_POINT
    faulty_stats = faulty_db.faults.stats()
    assert faulty_stats["enabled"] is True
    assert faulty_stats["injections"] == 0
    assert faulty_db.faults.point("wal.append") is not NULL_POINT
    assert faulty_db.faults.point("storage.commit").armed() is False

    bench_faults_report("fault_overhead", {
        "events_per_round": EVENTS_PER_ROUND,
        "rounds": ROUNDS,
        "disabled_best_s": plain_best,
        "enabled_unarmed_best_s": faulty_best,
        "overhead_fraction": overhead,
        "budget_fraction": BUDGET,
        "enabled_points": sorted(faulty_db.faults.armed_points()),
    })
    print(f"\nfault-point overhead: disabled={plain_best * 1e3:.2f}ms "
          f"enabled-unarmed={faulty_best * 1e3:.2f}ms "
          f"({overhead * 100:+.1f}%)")

    plain_db.close()
    faulty_db.close()

    assert overhead < BUDGET, (
        f"disarmed fault points cost {overhead * 100:.1f}% on the event "
        f"path (budget: {BUDGET * 100:.0f}%)")

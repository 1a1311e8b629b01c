"""Trace-propagation cost and the detection-latency SLO numbers.

Two claims from the end-to-end tracing work are quantified here and
recorded in ``benchmarks/results/BENCH_trace_latency.json`` (re-checked
by ``scripts/check_scaling.py`` so a regenerated result file cannot
silently regress):

* **unsampled tracing is near free**: with observability on but
  ``trace_sampling=0.0``, no trace is ever rooted, every downstream
  span attempt bails before packing attributes, and the whole pipeline
  must stay within 5% of a database with observability off — while the
  detection-latency SLO histograms keep recording every event.

* **the SLO layer actually measures end to end**: the
  ``slo.detection_latency`` histogram (event signal to rule-action
  completion) yields a positive p50/p99 with trace-id exemplars on its
  slowest samples.

Methodology refines ``test_obs_overhead.py`` for a smaller signal on a
noisy shared machine: rounds are interleaved and compared *pairwise*
(adjacent rounds share machine conditions), and the asserted statistic
is the lower-quartile paired ratio.  Single-side best-round comparisons
were measured to swing several percent run to run — more than the
budget itself — while the best paired ratio over-corrects the other way
(a single lucky pair reads as a speedup); the 25th percentile of paired
ratios was stable within about one percent across repeated runs.
"""

import time

from repro import ExecutionConfig, MethodEventSpec, ReachEngine, sentried

EVENTS_PER_ROUND = 100
ROUNDS = 50


@sentried(track_state=False)
class ProbeTraceOff:
    def ping(self, value):
        self.setting = value
        return value


@sentried(track_state=False)
class ProbeUnsampled:
    def ping(self, value):
        self.setting = value
        return value


@sentried(track_state=False)
class ProbeSlo:
    def ping(self, value):
        self.setting = value
        return value


class _Tally:
    def __init__(self):
        self.value = 0


def _database(tmp_path, observability, probe_cls, tally, **config_kwargs):
    db = ReachEngine(directory=str(tmp_path),
                     config=ExecutionConfig(observability=observability,
                                              history_capacity=256,
                                              **config_kwargs))
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


def test_unsampled_tracing_overhead_under_5_percent(
        tmp_path, bench_trace_latency_report):
    """``trace_sampling=0.0`` must cost < 5% vs observability off."""
    tally_off = _Tally()
    tally_unsampled = _Tally()
    off_db = _database(tmp_path / "off", observability=False,
                       probe_cls=ProbeTraceOff, tally=tally_off)
    unsampled_db = _database(tmp_path / "unsampled", observability=True,
                             probe_cls=ProbeUnsampled,
                             tally=tally_unsampled, trace_sampling=0.0)
    probe_off = ProbeTraceOff()
    probe_unsampled = ProbeUnsampled()

    _one_round(off_db, probe_off)          # warm-up, both sides
    _one_round(unsampled_db, probe_unsampled)

    off_samples = []
    unsampled_samples = []
    for __ in range(ROUNDS):
        start = time.perf_counter()
        _one_round(off_db, probe_off)
        off_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        _one_round(unsampled_db, probe_unsampled)
        unsampled_samples.append(time.perf_counter() - start)

    off_best = min(off_samples)
    unsampled_best = min(unsampled_samples)
    ratios = sorted(u / o for o, u in zip(off_samples, unsampled_samples))
    overhead = ratios[len(ratios) // 4] - 1.0        # lower quartile
    overhead_median = ratios[len(ratios) // 2] - 1.0
    events = (ROUNDS + 1) * EVENTS_PER_ROUND

    # Both rules really ran on every call.
    expected = sum(range(EVENTS_PER_ROUND)) * (ROUNDS + 1)
    assert tally_off.value == expected
    assert tally_unsampled.value == expected

    # The unsampled side really started zero traces: no root was ever
    # sampled, so the entire cascade stayed span-free …
    assert unsampled_db.tracer.born == 0
    assert unsampled_db.trace() is None
    # … while the SLO layer kept measuring every single event, with no
    # exemplars (there were no trace ids to pin).
    slo = unsampled_db.metrics().snapshot()["histograms"][
        "slo.detection_latency"]
    assert slo["count"] == events
    assert slo["exemplars"] == []
    # The off side had no instrumentation at all.
    assert off_db.metrics().snapshot()["counters"] == {}

    per_event_us = (unsampled_best - off_best) / EVENTS_PER_ROUND * 1e6
    bench_trace_latency_report("unsampled_overhead", {
        "events_per_round": EVENTS_PER_ROUND,
        "rounds": ROUNDS,
        "off_best_s": off_best,
        "unsampled_best_s": unsampled_best,
        "overhead_fraction": overhead,
        "overhead_fraction_median": overhead_median,
        "overhead_us_per_event": per_event_us,
        "slo_samples": slo["count"],
    })
    print(f"\nunsampled tracing: off={off_best * 1e3:.2f}ms "
          f"unsampled={unsampled_best * 1e3:.2f}ms "
          f"(paired p25 {overhead * 100:+.1f}%, "
          f"median {overhead_median * 100:+.1f}%)")

    off_db.close()
    unsampled_db.close()

    assert overhead < 0.05, (
        f"unsampled tracing costs {overhead * 100:.1f}% on the sentry "
        f"path (budget: 5%); the trace_sampling=0.0 fast path is "
        f"packing span attributes or creating spans it should not")


def test_detection_latency_slo_records_p50_p99(
        tmp_path, bench_trace_latency_report):
    """End-to-end detection latency: positive p50/p99, with exemplars."""
    tally = _Tally()
    db = _database(tmp_path / "slo", observability=True,
                   probe_cls=ProbeSlo, tally=tally)
    probe = ProbeSlo()

    events = 4 * EVENTS_PER_ROUND
    for index in range(events):
        with db.transaction():
            probe.ping(index)

    histograms = db.metrics().snapshot()["histograms"]
    slo = histograms["slo.detection_latency"]
    assert slo["count"] == events
    assert slo["p50"] > 0.0
    assert slo["p99"] >= slo["p50"]
    # The slowest samples carry trace-id exemplars: an operator can jump
    # from a bad bucket straight to /trace/<id>.
    assert slo["exemplars"], "slow buckets must carry trace-id exemplars"
    exemplar = slo["exemplars"][0]
    assert exemplar["trace_id"] is not None
    assert db.trace(exemplar["trace_id"]) is not None
    # The labelled series exists alongside the headline one.
    labelled = histograms["slo.detection_latency.probe-rule.immediate"]
    assert labelled["count"] == events

    p50_ms = slo["p50"] * 1e3
    p99_ms = slo["p99"] * 1e3
    bench_trace_latency_report("detection_latency", {
        "events": events,
        "p50_ms": p50_ms,
        "p99_ms": p99_ms,
        "mean_ms": slo["mean"] * 1e3,
        "max_ms": slo["max"] * 1e3,
        "exemplars": len(slo["exemplars"]),
    })
    print(f"\ndetection latency (signal -> action done): "
          f"p50={p50_ms * 1e3:.1f}us p99={p99_ms * 1e3:.1f}us "
          f"over {events} events")

    db.close()

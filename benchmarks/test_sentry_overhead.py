"""E1 — Sentry overhead categories (Section 6.2, after [WSTR93]).

The paper distinguishes three categories of sentry overhead plus the
unmonitored baseline:

* *unmonitored*: class never processed by the sentry generator;
* *useless overhead*: sentried, but nothing will ever trigger;
* *potentially useful overhead*: sentried with receivers on *other*
  methods of the class;
* *useful overhead*: a receiver consumes each notification.

Expected shape (the [WSTR93] result): unmonitored ~= useless <
potentially-useful ~= useless << useful.  Ideally useless overhead is a
single cheap test — which is exactly what the in-line wrapper does.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.oodb.sentry import Moment, registry, sentried


class UnmonitoredValve:
    def open_to(self, setting):
        self.setting = setting
        return setting

    def close(self):
        self.setting = 0


@sentried(track_state=False)
class SentriedValve:
    def open_to(self, setting):
        self.setting = setting
        return setting

    def close(self):
        self.setting = 0


CALLS_PER_ROUND = 1000


def _run_calls(valve):
    for __ in range(CALLS_PER_ROUND):
        valve.open_to(5)


def test_unmonitored_baseline(benchmark):
    benchmark(_run_calls, UnmonitoredValve())


def test_useless_overhead(benchmark):
    """Sentried, no receivers anywhere on the called method."""
    benchmark(_run_calls, SentriedValve())


def test_potentially_useful_overhead(benchmark):
    """Receivers exist on another method of the same class."""
    subscription = registry.watch_method(SentriedValve, "close",
                                         lambda note: None)
    try:
        benchmark(_run_calls, SentriedValve())
    finally:
        subscription.cancel()


def test_useful_overhead(benchmark):
    """A receiver consumes every notification."""
    sink = []
    subscription = registry.watch_method(SentriedValve, "open_to",
                                         sink.append, moment=Moment.AFTER)
    try:
        benchmark(_run_calls, SentriedValve())
    finally:
        subscription.cancel()


def test_overhead_shape_report(results_report, bench_obs_report):
    """Measure all four categories in one process and check the shape.

    Latency collection runs through the observability subsystem's
    :class:`MetricsRegistry` — one histogram per overhead category plus
    ``sentry.notifications``, read from the sentry registry's own
    delivery count — and the full snapshot lands in
    ``results/BENCH_obs.json``.
    """
    metrics = MetricsRegistry(enabled=True)
    delivered_before = registry.notifications_delivered
    metrics.counter_fn(
        "sentry.notifications",
        lambda: registry.notifications_delivered - delivered_before)

    def measure(name, setup):
        valve, teardown = setup()
        histogram = metrics.histogram(f"e1.round_latency.{name}")
        for __ in range(30):
            with histogram.time():
                _run_calls(valve)
        teardown()
        return histogram

    def unmonitored():
        return UnmonitoredValve(), (lambda: None)

    def useless():
        return SentriedValve(), (lambda: None)

    def potentially():
        sub = registry.watch_method(SentriedValve, "close",
                                    lambda note: None)
        return SentriedValve(), sub.cancel

    def useful():
        sub = registry.watch_method(SentriedValve, "open_to",
                                    lambda note: None)
        return SentriedValve(), sub.cancel

    rows = {
        "unmonitored": measure("unmonitored", unmonitored),
        "useless overhead": measure("useless", useless),
        "potentially useful": measure("potentially", potentially),
        "useful overhead": measure("useful", useful),
    }
    notifications = registry.notifications_delivered - delivered_before

    per_call = {name: histogram.percentile(50) / CALLS_PER_ROUND * 1e9
                for name, histogram in rows.items()}
    base = per_call["unmonitored"]
    lines = ["E1: sentry overhead per method call (category, ns/call, "
             "x unmonitored):", ""]
    for name, nanos in per_call.items():
        lines.append(f"  {name:20s} {nanos:10.1f} ns   "
                     f"{nanos / base:6.2f}x")
    text = results_report("E1_sentry_overhead", lines)
    print("\n" + text)

    bench_obs_report("E1_sentry_overhead", {
        "calls_per_round": CALLS_PER_ROUND,
        "per_call_ns_p50": per_call,
        "sentry_notifications": notifications,
        "metrics": metrics.snapshot(),
    })

    # Only the useful-overhead rounds deliver notifications (the other
    # categories must stay off the receiver path entirely).
    assert notifications == 30 * CALLS_PER_ROUND

    # Shape: useful overhead strictly dominates the unmonitored baseline,
    # and the useless path stays much closer to the baseline than the
    # useful path does.
    assert per_call["useful overhead"] > per_call["unmonitored"]
    useless_delta = per_call["useless overhead"] - base
    useful_delta = per_call["useful overhead"] - base
    assert useful_delta > useless_delta

"""Counters, gauges and latency histograms for the event pipeline.

The paper's engineering argument — integration makes active behaviour
*cheap enough to measure* — needs a measurement substrate that does not
perturb what it measures.  Two properties drive this module's design:

* **near-zero cost when disabled**: a disabled :class:`MetricsRegistry`
  hands out process-wide *null instruments* whose mutating methods are
  no-ops; instrumentation points hold direct references to their
  instruments, so the disabled hot path is one no-op method call with no
  dictionary lookup, no branching on configuration, and no allocation;
* **lock-free hot path when enabled**: counters use plain integer
  addition (CPython-atomic, same convention as the sentry registry's
  ``notifications_delivered``); histograms append to a bounded reservoir
  under no lock and tolerate the benign races this implies — metrics are
  statistics, not ledgers.

Gauges for queue depths are *pull-based*: a callable registered with
:meth:`MetricsRegistry.gauge_fn` is evaluated only when a snapshot is
taken, so tracking the deferred/detached queue depths costs nothing on
the detection path.  A count a subsystem keeps anyway is pulled the same
way (:meth:`MetricsRegistry.counter_fn`), so each fact is counted once
and the snapshot agrees with ``db.statistics()`` by construction.  The
kernels of a sharded engine share one registry and each registers its
own reads under the same names; a pulled instrument reads the
topology's value: a counter the sum, a gauge the combination its
registration names (a sum of depths, the oldest of ages).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from heapq import heappush, heapreplace
from typing import Any, Callable, Hashable, Iterable, Optional

#: Slowest exemplared samples a histogram retains (per instrument).
EXEMPLAR_CAPACITY = 8


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class PulledCounter(Counter):
    """A count its owners keep, read when looked at: the sum over every
    owner registered under the name.  ``inc`` fails: the owners' counts
    are the only record."""

    __slots__ = ("_reads",)

    def __init__(self, name: str, read: Callable[[], int]):
        self.name = name
        self._reads = [read]

    @property
    def value(self) -> int:
        return sum(read() for read in self._reads)


class Gauge:
    """A value that can go up and down (queue depths, pool occupancy)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class _HistogramSample:
    """Context manager recording one latency sample into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram"):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramSample":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class Histogram:
    """Latency distribution: count/sum/min/max plus a bounded reservoir.

    The reservoir keeps the most recent ``reservoir_size`` (up to twice
    that between trims) raw samples so percentiles stay exact for
    benchmark-sized runs while memory stays bounded for production-sized
    ones (older samples fall out of the percentile window but remain in
    count/sum/min/max).  Trimming happens in blocks so the steady-state
    cost of ``observe`` stays amortized O(1).

    ``observe`` optionally takes an *exemplar* — a trace id to pin to the
    sample.  The histogram keeps the :data:`EXEMPLAR_CAPACITY` slowest
    exemplared samples, so an operator looking at a bad p99 can jump
    straight from the bucket to a concrete ``/trace/<id>`` tree.
    """

    __slots__ = ("name", "count", "total", "min", "max", "samples",
                 "reservoir_size", "exemplars")

    def __init__(self, name: str, reservoir_size: int = 4096):
        self.name = name
        self.reservoir_size = reservoir_size
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.samples: list[float] = []
        self.exemplars: list[tuple[float, Any]] = []

    def observe(self, seconds: float, exemplar: Any = None) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        samples = self.samples
        samples.append(seconds)
        if len(samples) >= self.reservoir_size * 2:
            del samples[:self.reservoir_size]
        if exemplar is not None:
            # A min-heap: exemplars[0] is the fastest retained sample, so
            # a sample that does not beat it costs one comparison.  Each
            # heapq call is one C call, atomic under the GIL.
            exemplars = self.exemplars
            if len(exemplars) < EXEMPLAR_CAPACITY:
                heappush(exemplars, (seconds, exemplar))
            elif seconds > exemplars[0][0]:
                heapreplace(exemplars, (seconds, exemplar))

    def time(self) -> _HistogramSample:
        """``with histogram.time(): ...`` records the block's duration."""
        return _HistogramSample(self)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile over the retained reservoir."""
        return self._percentile_of(sorted(self.samples), q)

    @staticmethod
    def _percentile_of(ordered: list[float], q: float) -> float:
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1,
                    int(round(q / 100 * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self) -> dict[str, float]:
        """A mutually consistent view of this histogram's fields.

        Writers mutate count/total/min/max/samples without a lock, so a
        naive field-by-field read can pair a new ``count`` with an old
        ``total``.  This capture is seqlock-style: copy the fields, then
        re-read ``count`` — if it moved, a writer interleaved and the
        copy is retried (bounded; the final attempt is accepted as-is,
        keeping the no-lock hot path: metrics are statistics, not
        ledgers, but *exported* values should at least be coherent).
        """
        for _ in range(4):
            count = self.count
            total = self.total
            low = self.min
            high = self.max
            ordered = sorted(self.samples[-self.reservoir_size:])
            if self.count == count:
                break
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": low if count else 0.0,
            "max": high,
            "p50": self._percentile_of(ordered, 50),
            "p95": self._percentile_of(ordered, 95),
            "p99": self._percentile_of(ordered, 99),
            "exemplars": [
                {"value": value, "trace_id": trace_id}
                for value, trace_id in sorted(self.exemplars, reverse=True)
            ],
        }

    def summary(self) -> dict[str, float]:
        return self.snapshot()

    def __repr__(self) -> str:
        return (f"<Histogram {self.name} n={self.count} "
                f"mean={self.mean * 1e6:.1f}us>")


class AtomicCounters:
    """Ledger counters that increment without a lock.

    Each counter is an ``itertools.count``: ``next()`` on it is one C
    call, atomic under the GIL, so concurrent increments are never lost
    and no writer ever waits.  A count reads back only through its repr,
    ``count(N)``.  :meth:`snapshot` reads the counters last-named first:
    name a counter before the ones incremented after it in a lifecycle
    (``begun`` before ``committed``) and a snapshot never shows more of a
    later one than of an earlier one.
    """

    __slots__ = ("_counters",)

    def __init__(self, names: Iterable[Hashable]):
        self._counters = {name: itertools.count() for name in names}

    def inc(self, key: Any) -> None:
        next(self._counters[key])

    def __getitem__(self, key: Any) -> int:
        return int(repr(self._counters[key])[6:-1])

    def snapshot(self) -> dict[Any, int]:
        values = {name: self[name] for name in reversed(self._counters)}
        return {name: values[name] for name in self._counters}


class _NullContext:
    """Reusable no-op context manager for disabled instruments."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullCounter(Counter):
    """No-op counter handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, n: float = 1) -> None:
        pass

    def dec(self, n: float = 1) -> None:
        pass


class NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, seconds: float, exemplar: Any = None) -> None:
        pass

    def time(self) -> Any:
        return _NULL_CONTEXT


#: Shared null instruments: every disabled registry returns these exact
#: objects, so tests can assert identity to prove the zero-cost path.
NULL_COUNTER = NullCounter("null")
NULL_GAUGE = NullGauge("null")
NULL_HISTOGRAM = NullHistogram("null")


class MetricsRegistry:
    """Names and owns every instrument of one database instance.

    Instrument names are dotted paths (``events.detected``,
    ``rules.fired.immediate``, ``wal.flushes``); requesting the same name
    twice returns the same instrument.  A registry constructed with
    ``enabled=False`` returns the shared null instruments instead and
    records nothing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: name -> (combine, reads) of each pulled gauge.
        self._gauge_fns: dict[str, tuple[Callable, list[Callable]]] = {}
        # Guards instrument *creation* and snapshot's dict copies; never
        # taken on the increment/observe hot path.
        self._lock = threading.Lock()

    # -- instrument factories -------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.get(name)
                if gauge is None:
                    gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  reservoir_size: int = 4096) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(
                        name, reservoir_size=reservoir_size)
        return histogram

    def gauge_fn(self, name: str, fn: Callable[[], float],
                 combine: Callable[[Iterable[float]], float] = sum) -> None:
        """Register a pull-based gauge evaluated at snapshot time only.

        Every ``fn`` registered under ``name`` is read, and the gauge is
        ``combine`` over the reads; the first registration's ``combine``
        stands.
        """
        if self.enabled:
            with self._lock:
                self._gauge_fns.setdefault(name, (combine, []))[1].append(fn)

    def counter_fn(self, name: str, fn: Callable[[], int]) -> None:
        """Register counter ``name`` as a read of a count its owner keeps;
        ``counter(name).value`` and snapshots sum every registered ``fn``."""
        if self.enabled:
            with self._lock:
                counter = self._counters.get(name)
                if isinstance(counter, PulledCounter):
                    counter._reads.append(fn)
                else:
                    self._counters[name] = PulledCounter(name, fn)

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """An atomic, JSON-serializable view of every instrument.

        Atomic in two senses the exporters and the Prometheus renderer
        rely on: the instrument *tables* are copied under the registry
        lock (so a concurrently created instrument cannot corrupt the
        iteration), and each histogram's fields are captured coherently
        via :meth:`Histogram.snapshot` (so ``count``/``sum``/percentiles
        in one export line belong to the same moment).
        """
        out: dict[str, Any] = {"enabled": self.enabled}
        with self._lock:
            counter_items = sorted(self._counters.items())
            gauge_items = sorted(self._gauges.items())
            gauge_fn_items = sorted(self._gauge_fns.items())
            histogram_items = sorted(self._histograms.items())
        counters = {name: c.value for name, c in counter_items}
        gauges = {name: g.value for name, g in gauge_items}
        for name, (combine, reads) in gauge_fn_items:
            try:
                gauges[name] = combine(read() for read in reads)
            except Exception:
                gauges[name] = None
        histograms = {name: h.snapshot() for name, h in histogram_items}
        out["counters"] = counters
        out["gauges"] = gauges
        out["histograms"] = histograms
        return out

    def dump_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def dump_text(self) -> str:
        """Human-readable one-line-per-instrument dump."""
        snap = self.snapshot()
        lines = [f"metrics (enabled={snap['enabled']})"]
        for name, value in snap["counters"].items():
            lines.append(f"  {name:40s} {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name:40s} {value}")
        for name, summary in snap["histograms"].items():
            lines.append(
                f"  {name:40s} n={summary['count']} "
                f"mean={summary['mean'] * 1e6:.1f}us "
                f"p50={summary['p50'] * 1e6:.1f}us "
                f"p95={summary['p95'] * 1e6:.1f}us "
                f"p99={summary['p99'] * 1e6:.1f}us")
        return "\n".join(lines)


#: Registry used by components not wired to a database (always disabled).
NULL_METRICS = MetricsRegistry(enabled=False)


def merge_stats(values: list[Any]) -> Any:
    """Recursively merge per-kernel statistics: numbers sum, dicts merge
    key-by-key, lists concatenate, everything else keeps the first
    kernel's value (configs, paths, flags).  One kernel's value merges
    to an equal copy of itself."""
    first = values[0]
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return sum(v for v in values if isinstance(v, (int, float)))
    if isinstance(first, dict):
        merged: dict[str, Any] = {}
        for value in values:
            if not isinstance(value, dict):
                continue
            for key in value:
                if key in merged:
                    continue
                present = [v[key] for v in values
                           if isinstance(v, dict) and key in v]
                merged[key] = merge_stats(present)
        return merged
    if isinstance(first, list):
        out: list[Any] = []
        for value in values:
            if isinstance(value, list):
                out.extend(value)
        return out
    return first
